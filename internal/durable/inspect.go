package durable

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// LogInfo is a read-only summary of one log in a state directory.
type LogInfo struct {
	Name          string
	Segments      int
	WALBytes      int64
	Records       int // valid records after the checkpoint
	Damage        []Damage
	HasCheckpoint bool
	CheckpointAt  time.Time
	CheckpointLen int64 // snapshot bytes
}

// Inspect summarizes every log in a state directory without modifying it
// (no truncation, no repair, no marker consumption) — safe against a
// directory another process is writing.  clean reports whether the
// clean-shutdown marker is present.
func Inspect(dir string) (infos []LogInfo, clean bool, err error) {
	if _, err := os.Stat(filepath.Join(dir, cleanMarkerFile)); err == nil {
		clean = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, false, err
	}
	names := map[string]bool{}
	for _, e := range ents {
		if m := segRe.FindStringSubmatch(e.Name()); m != nil {
			names[m[1]] = true
		} else if n, ok := cutCkpt(e.Name()); ok {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		_, info, err := readLogDir(dir, name)
		if err != nil {
			return nil, clean, err
		}
		infos = append(infos, info)
	}
	return infos, clean, nil
}

func cutCkpt(fname string) (string, bool) {
	const suf = ".ckpt"
	if len(fname) > len(suf) && fname[len(fname)-len(suf):] == suf {
		return fname[:len(fname)-len(suf)], true
	}
	return "", false
}

// ReadLog decodes one log read-only: the checkpoint snapshot plus the
// valid records after it, stopping at (and reporting) any damage, exactly
// as recovery would — but without repairing the files.
func ReadLog(dir, name string) (*Recovery, error) {
	rec, _, err := readLogDir(dir, name)
	return rec, err
}

// readLogDir runs openLog's scan and reports it, repairing nothing.
func readLogDir(dir, name string) (*Recovery, LogInfo, error) {
	info := LogInfo{Name: name}
	sc, err := scanLog(dir, name)
	if err != nil {
		return nil, info, err
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarkerFile)); err == nil {
		sc.rec.Clean = true
	}
	if !sc.ckptBad && !sc.ckptAt.IsZero() {
		info.HasCheckpoint = true
		info.CheckpointAt = sc.ckptAt
		info.CheckpointLen = int64(len(sc.rec.Snapshot))
	}
	for _, s := range sc.live {
		info.Segments++
		info.WALBytes += s.valid
	}
	info.Records = len(sc.rec.Records)
	info.Damage = sc.rec.Damage
	return &sc.rec, info, nil
}
