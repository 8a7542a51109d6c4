// Package journal is the durable log behind every crash-resumable layer: an
// append-only, fsync'd, hash-chained JSON-lines file, plus the durable
// whole-file write the service uses for its side files.
//
// The first line is a header with a format version and the consumer's
// configuration fingerprint. Each line ends with a Link: its own hash and
// its predecessor's, so any edit, reordering, or deletion breaks the chain.
// Every append is one write and an fsync, so a crash leaves a byte prefix:
// Open truncates a torn last line (never acted on), and a file without a
// complete header line is no journal (ErrNoJournal).
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

var (
	// ErrInvalid reports a journal that cannot be resumed.
	ErrInvalid = errors.New("journal: invalid")
	// ErrNoJournal reports a missing or empty file, or one torn inside its
	// header. Consumers start fresh on it.
	ErrNoJournal = fmt.Errorf("%w: no complete header", ErrInvalid)
)

// Link is the hash-chain tail every record embeds as its last field: Prev
// is the predecessor's Hash ("" for the header), Hash the hex SHA-256 of
// the record's line with the hash value emptied.
type Link struct {
	Prev string `json:"prev"`
	Hash string `json:"hash"`
}

func (l *Link) link() *Link { return l }

// Record is a pointer to a struct whose last field is an embedded Link.
type Record interface{ link() *Link }

type header struct {
	Kind    string          `json:"kind"`
	Version int             `json:"version"`
	Config  json.RawMessage `json:"config"`
	Link
}

// Log is an open journal positioned for appending.
type Log struct {
	f    *os.File
	prev string
}

// Create truncates path, writes the fsync'd header, and fsyncs the
// directory so the file itself survives a crash.
func Create(path string, version int, config any) (*Log, error) {
	raw, err := json.Marshal(config)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if err := l.Append(&header{Kind: "header", Version: version, Config: raw}); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(path); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Open verifies the journal at path and returns it positioned for
// appending, with the header's config decoded into config and every later
// record decoded as an R. A torn unterminated last line is truncated away.
// A file without a complete header line yields ErrNoJournal; any other
// integrity violation, or a header of another format version, ErrInvalid.
func Open[R any](path string, version int, config any) (_ *Log, _ []R, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("%w: %w", ErrNoJournal, err)
	}
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	keep := bytes.LastIndexByte(data, '\n') + 1
	if keep == 0 {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoJournal, path)
	}
	lines := bytes.Split(data[:keep-1], []byte("\n"))
	var h header
	recs := make([]R, len(lines)-1)
	prev := ""
	for i, line := range lines {
		target := any(&h)
		if i > 0 {
			target = &recs[i-1]
		}
		if prev, err = verify(line, prev); err == nil {
			err = json.Unmarshal(line, target)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %s line %d: %v", ErrInvalid, path, i+1, err)
		}
	}
	if h.Kind != "header" || len(h.Config) == 0 || string(h.Config) == "null" {
		return nil, nil, fmt.Errorf("%w: %s does not start with a header record", ErrInvalid, path)
	}
	if h.Version != version {
		return nil, nil, fmt.Errorf("%w: %s has format version %d, this build reads %d", ErrInvalid, path, h.Version, version)
	}
	if err = json.Unmarshal(h.Config, config); err != nil {
		return nil, nil, fmt.Errorf("%w: %s header config: %v", ErrInvalid, path, err)
	}
	// Drop a torn tail: appends are fsync'd before the consumer acts on
	// them, so an unterminated last line was never acted on.
	if err = f.Truncate(int64(keep)); err != nil {
		return nil, nil, err
	}
	return &Log{f: f, prev: prev}, recs, nil
}

// verify checks that line ends with its Link,
// `"prev":"<prev>","hash":"<hash>"}`, where hash is the hex SHA-256 of the
// line with the hash value emptied, and returns the hash.
func verify(line []byte, prev string) (string, error) {
	n := len(line) - len(`"}`) - 2*sha256.Size
	if n < 0 || !bytes.HasSuffix(line, []byte(`"}`)) || string(line[n:len(line)-2]) != sum(line[:n]) {
		return "", errors.New("hash mismatch (content altered)")
	}
	if !bytes.HasSuffix(line[:n], []byte(`"prev":"`+prev+`","hash":"`)) {
		return "", errors.New("broken hash chain (records altered or reordered)")
	}
	return string(line[n : len(line)-2]), nil
}

// sum hashes a line whose hash value is emptied, given its bytes up to and
// including the hash value's opening quote.
func sum(body []byte) string {
	h := sha256.New()
	h.Write(body)
	h.Write([]byte(`"}`))
	return hex.EncodeToString(h.Sum(nil))
}

// Append chains rec to the log, writes it as one line, and fsyncs. On
// return rec's Link holds its chain position and hash.
func (l *Log) Append(rec Record) error {
	lk := rec.link()
	lk.Prev, lk.Hash = l.prev, ""
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	body, ok := bytes.CutSuffix(payload, []byte(`"}`))
	if !ok || !bytes.HasSuffix(body, []byte(`"hash":"`)) {
		return fmt.Errorf("journal: %T does not end with its Link", rec)
	}
	lk.Hash = sum(body)
	if _, err := l.f.Write(append(append(body, lk.Hash...), "\"}\n"...)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	l.prev = lk.Hash
	return nil
}

// Close closes the underlying file; closing twice is a no-op.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteFileAtomic replaces path with data durably: it writes and fsyncs
// <path>.tmp, renames it over path, and fsyncs the directory. A crash
// leaves either the previous file or the new one, never a torn mix; a
// failed write removes the temp file and leaves the previous file intact.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory holding path, making a create or rename in
// it durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
