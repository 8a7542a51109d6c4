package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

const testVersion = 1

type testConfig struct {
	Name  string `json:"name"`
	Buses int    `json:"buses"`
}

type testRecord struct {
	Kind string  `json:"kind"`
	Seq  int     `json:"seq,omitempty"`
	Cost float64 `json:"cost,omitempty"`
	Link
}

var testCfg = testConfig{Name: "paper5", Buses: 5}

// writeJournal creates a journal at path holding n records and returns them
// as appended (Links filled in).
func writeJournal(t *testing.T, path string, n int) []testRecord {
	t.Helper()
	l, err := Create(path, testVersion, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := make([]testRecord, n)
	for i := range recs {
		recs[i] = testRecord{Kind: "step", Seq: i + 1, Cost: 1550 + float64(i)}
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

func openTest(path string) (*Log, testConfig, []testRecord, error) {
	var cfg testConfig
	l, recs, err := Open[testRecord](path, testVersion, &cfg)
	return l, cfg, recs, err
}

// mustReopen opens path, requiring success and want records.
func mustReopen(t *testing.T, path string, want []testRecord) *Log {
	t.Helper()
	l, cfg, recs, err := openTest(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if cfg != testCfg {
		t.Fatalf("config = %+v, want %+v", cfg, testCfg)
	}
	if len(recs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(recs, want)) {
		l.Close()
		t.Fatalf("records:\n got %+v\nwant %+v", recs, want)
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	want := writeJournal(t, path, 3)
	l := mustReopen(t, path, want)
	next := testRecord{Kind: "step", Seq: 4}
	if err := l.Append(&next); err != nil {
		t.Fatal(err)
	}
	if next.Prev != want[2].Hash || next.Hash == "" {
		t.Fatalf("appended link %+v does not chain onto %q", next.Link, want[2].Hash)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	mustReopen(t, path, append(want, next)).Close()
}

// TestTornTailRepaired simulates a crash inside an append: the unterminated
// tail is dropped, everything before it kept, and the repaired journal
// accepts appends and reopens cleanly.
func TestTornTailRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	want := writeJournal(t, path, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"step","seq":2,"co`)
	f.Close()

	l := mustReopen(t, path, want)
	next := testRecord{Kind: "step", Seq: 2}
	if err := l.Append(&next); err != nil {
		t.Fatal(err)
	}
	l.Close()
	mustReopen(t, path, append(want, next)).Close()
}

// TestRejectsTampering: every alteration other than a torn tail breaks the
// chain, and none of them is mistaken for a missing journal.
func TestRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal")
	writeJournal(t, path, 2)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(pristine, []byte("\n"))
	cases := map[string][]byte{
		"content flip":      bytes.Replace(pristine, []byte("1550"), []byte("1551"), 1),
		"record deleted":    bytes.Join([][]byte{lines[0], lines[2]}, nil),
		"records reordered": bytes.Join([][]byte{lines[0], lines[2], lines[1]}, nil),
		"header dropped":    bytes.Join([][]byte{lines[1], lines[2]}, nil),
		"hash rewritten":    bytes.Replace(pristine, []byte(`"hash":"`), []byte(`"hash":"0`), 1),
		"not json":          []byte("{not json\n"),
	}
	for name, data := range cases {
		p := filepath.Join(dir, "tampered.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := openTest(p)
		if !errors.Is(err, ErrInvalid) || errors.Is(err, ErrNoJournal) {
			t.Errorf("%s: Open error = %v, want ErrInvalid and not ErrNoJournal", name, err)
		}
	}
}

// TestRejectsForeignHeader guards the format-version gate and the header
// shape: a correctly chained file from another version, or one whose first
// record is not a header, is invalid.
func TestRejectsForeignHeader(t *testing.T) {
	dir := t.TempDir()
	future := filepath.Join(dir, "future.journal")
	l, err := Create(future, testVersion+1, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, _, err := openTest(future); !errors.Is(err, ErrInvalid) {
		t.Fatalf("future version: Open error = %v, want ErrInvalid", err)
	}

	noConfig := filepath.Join(dir, "noconfig.journal")
	if l, err = Create(noConfig, testVersion, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, _, err := openTest(noConfig); !errors.Is(err, ErrInvalid) {
		t.Fatalf("header without config: Open error = %v, want ErrInvalid", err)
	}
}

// TestNoJournal: a missing file, an empty file, and a header torn before
// its newline all mean "no journal", distinct from corruption.
func TestNoJournal(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.journal")
	if err := os.WriteFile(torn, []byte(`{"kind":"header","vers`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.journal"), empty, torn} {
		if _, _, _, err := openTest(path); !errors.Is(err, ErrNoJournal) {
			t.Errorf("%s: Open error = %v, want ErrNoJournal", filepath.Base(path), err)
		}
	}
}

type misplacedLink struct {
	Link
	Kind string `json:"kind"`
}

func TestAppendRequiresTrailingLink(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "run.journal"), testVersion, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(&misplacedLink{Kind: "step"}); err == nil {
		t.Fatal("Append accepted a record whose Link is not its last field")
	}
}

// TestCrashPoints enumerates every state a crash can leave: each append is
// one write then an fsync, so the file on disk is a byte prefix of the
// uninterrupted one. Open must return exactly the complete-record prefix
// (or ErrNoJournal inside the header), and the repaired file must take an
// append and reopen with its chain intact.
func TestCrashPoints(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "full.journal")
	recs := writeJournal(t, src, 4)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bytes.IndexByte(data, '\n') + 1
	path := filepath.Join(dir, "cut.journal")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, got, err := openTest(path)
		complete := 0
		if cut < headerEnd {
			if !errors.Is(err, ErrNoJournal) {
				t.Fatalf("cut %d (inside header): Open error = %v, want ErrNoJournal", cut, err)
			}
			if l, err = Create(path, testVersion, testCfg); err != nil {
				t.Fatal(err)
			}
			got = nil
		} else if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		} else {
			complete = bytes.Count(data[headerEnd:cut], []byte("\n"))
		}
		if len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, recs[:complete])) {
			t.Fatalf("cut %d: got %d records, want the %d complete ones", cut, len(got), complete)
		}
		next := testRecord{Kind: "step", Seq: 99}
		if err := l.Append(&next); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		l.Close()
		l, _, again, err := openTest(path)
		if err != nil || len(again) != complete+1 || again[complete] != next {
			t.Fatalf("cut %d: reopen after repair: %d records, err %v", cut, len(again), err)
		}
		l.Close()
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.result.json")
	for _, content := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("read back %q (%v), want %q", got, err, content)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind (err=%v)", err)
		}
	}
}

// TestWriteFileAtomicFailureKeepsTarget: a write that cannot complete
// leaves no temp file and the previous target untouched.
func TestWriteFileAtomicFailureKeepsTarget(t *testing.T) {
	dir := t.TempDir()

	// The rename fails: the target is a non-empty directory.
	busy := filepath.Join(dir, "busy")
	if err := os.MkdirAll(filepath.Join(busy, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(busy, []byte("new")); err == nil {
		t.Fatal("WriteFileAtomic replaced a non-empty directory")
	}
	if _, err := os.Stat(busy + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed write left its temp file (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(busy, "child")); err != nil {
		t.Fatalf("failed write disturbed the previous target: %v", err)
	}

	// The temp file cannot be created: the previous file keeps its bytes.
	path := filepath.Join(dir, "k.req.json")
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path+".tmp", "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new")); err == nil {
		t.Fatal("WriteFileAtomic succeeded without its temp file")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("previous target = %q (%v), want %q", got, err, "old")
	}
}
