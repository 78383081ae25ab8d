// Package atomicfile is the one place that knows how a persisted record is
// encoded and published. Campaign checkpoints and every comfortd job file
// (spec, status, result, lease) go through it.
//
// Both publishing functions stage the bytes in a temp file in the target's
// directory and only then move them into place, so a crash at any instant
// leaves the target absent, old or new — never torn. Replace renames over
// the target; Create hard-links, which never replaces and so arbitrates
// racing creators. A temp file never outlives the call that made it.
package atomicfile

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// tempPattern names staged files: dot-files, kept out of ordinary
// directory listings.
const tempPattern = ".tmp-*"

// Encode renders v as a record: JSON indented by one space, plus a
// trailing newline. Byte-identity of checkpoints and job results is
// defined over this encoding.
func Encode(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Replace atomically writes data to path, replacing any existing file.
// A failure to publish the staged bytes (the rename) is an *os.LinkError;
// any other error came from staging them, and path is untouched.
func Replace(path string, data []byte) error {
	tmp, err := stage(path, data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Create atomically writes data to path if and only if path does not
// exist; otherwise it fails with an error matching fs.ErrExist and the
// existing file is untouched. As with Replace, a publish failure (the
// link) is an *os.LinkError.
func Create(path string, data []byte) error {
	tmp, err := stage(path, data)
	if err != nil {
		return err
	}
	err = os.Link(tmp, path)
	os.Remove(tmp)
	return err
}

// stage writes data to a new temp file beside path and returns its name.
// On error the temp file is already removed.
func stage(path string, data []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), tempPattern)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}
