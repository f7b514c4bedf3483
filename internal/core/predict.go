package core

import "repro/internal/twin"

// Predict runs the analytical twin on a study configuration: the same
// overrides, seed stamping, clamping, and large-scale disk-capacity
// adjustment a real study would apply (studyParams), but walked on the
// machine with tracing off (machine.NewUntraced). The returned
// prediction is the instant what-if behind `charisma -predict`;
// TestTwinConformance holds its walked counters equal to RunStudy's
// observed queue counters across the scenario corpus.
func Predict(cfg Config) *twin.Prediction {
	cfg = cfg.normalized()
	wp, mc := studyParams(cfg)
	return twin.Predict(wp, mc)
}
