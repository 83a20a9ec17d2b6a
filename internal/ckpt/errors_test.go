package ckpt

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"nowomp/internal/omp"
)

func TestSaveRejectsUnencodableState(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "a", 16); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = Save(rt, &buf, map[string]any{"bad": make(chan int)})
	if err == nil || !strings.Contains(err.Error(), "encode state") {
		t.Fatalf("unencodable state must fail, got %v", err)
	}
}

func TestRestoreVersionMismatch(t *testing.T) {
	snap := Snapshot{Version: 999, Team: []int{0}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch must fail, got %v", err)
	}
}

func TestRestoreEmptyTeam(t *testing.T) {
	snap := Snapshot{Version: version}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err == nil || !strings.Contains(err.Error(), "no team") {
		t.Fatalf("empty team must fail, got %v", err)
	}
}

func TestRestoreHostOutsidePool(t *testing.T) {
	snap := Snapshot{Version: version, Team: []int{0, 9}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err == nil || !strings.Contains(err.Error(), "outside pool") {
		t.Fatalf("out-of-pool host must fail, got %v", err)
	}
}

func TestRestoredKeys(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "a", 16); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Save(rt, &buf, map[string]any{"x": 1, "y": "two"}); err != nil {
		t.Fatal(err)
	}
	_, restored, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	keys := restored.Keys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v, want 2 entries", keys)
	}
	var y string
	if err := restored.State("y", &y); err != nil || y != "two" {
		t.Fatalf("y = %q, err %v", y, err)
	}
	// Type mismatch on decode.
	var wrong int
	if err := restored.State("y", &wrong); err == nil {
		t.Fatal("type-mismatched decode must fail")
	}
}

func TestSaveFileBadDirectory(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveFile(rt, "/nonexistent-dir-xyz/x.ckpt", nil); err == nil {
		t.Fatal("unwritable directory must fail")
	}
}

func TestDirOf(t *testing.T) {
	if got := dirOf("/a/b/c.ckpt"); got != "/a/b" {
		t.Fatalf("dirOf = %q", got)
	}
	if got := dirOf("c.ckpt"); got != "." {
		t.Fatalf("dirOf bare = %q", got)
	}
}
