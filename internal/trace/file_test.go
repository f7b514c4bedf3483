package trace

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileWritesTrace: the happy path leaves a complete trace
// that reads back.
func TestWriteFileWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trc")
	tr := driftTrace()
	if err := WriteFile(path, func(f *os.File) error {
		_, err := tr.WriteTo(f)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.NumBlocks() != len(tr.Blocks) || rd.EventCount() != 6 {
		t.Fatalf("read back %d blocks, %d events", rd.NumBlocks(), rd.EventCount())
	}
}

// TestWriteFileRemovesPartial: a write that lands bytes and then fails
// leaves no file behind, and the error says so.
func TestWriteFileRemovesPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.trc")
	full := errors.New("disk full")
	err := WriteFile(path, func(f *os.File) error {
		if _, err := f.WriteString(Magic); err != nil {
			return err
		}
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("error %v does not wrap the write failure", err)
	}
	if !strings.Contains(err.Error(), "removed the partial file, 8 bytes landed") {
		t.Fatalf("error %q does not report the removal", err)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatalf("partial file left behind: %v", err)
	}
}

// TestWriteFileKeepsNonRegular: the clean-up never unlinks what is not
// a regular file. A directory cannot be created over, so nothing is
// written; a symlink whose write fails stays in place.
func TestWriteFileKeepsNonRegular(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(dir, func(*os.File) error {
		t.Error("write ran on a directory")
		return nil
	}); err == nil {
		t.Fatal("a directory was accepted as the output")
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("directory target disturbed: %v", err)
	}
	if err := WriteFile(filepath.Join(dir, "no", "such", "t.trc"), func(*os.File) error {
		t.Error("write ran on an uncreatable path")
		return nil
	}); err == nil {
		t.Fatal("an uncreatable path was accepted")
	}

	target := filepath.Join(dir, "target.trc")
	link := filepath.Join(dir, "link.trc")
	if err := os.WriteFile(target, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	err := WriteFile(link, func(f *os.File) error {
		f.WriteString(Magic)
		return errors.New("disk full")
	})
	if err == nil || !strings.Contains(err.Error(), "left in place") {
		t.Fatalf("error %v does not say the target was left in place", err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("symlink target removed or replaced: %v", err)
	}
}
