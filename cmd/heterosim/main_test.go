package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"heteroos/internal/scenario"
)

// TestMain lets the test binary stand in for heterosim: with
// HETEROSIM_RUN_MAIN=1 in the environment it runs main on its
// command-line arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("HETEROSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runHeterosim runs heterosim with args and returns its exit code and
// stderr.
func runHeterosim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HETEROSIM_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running heterosim: %v", err)
	return 0, ""
}

// A scenario script naming a backend memsim does not build is bad
// input: heterosim exits 2 naming the backend, before any simulation.
func TestScenarioUnknownBackendExitsUsage(t *testing.T) {
	sc, err := scenario.LoadBundled("churn.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Backend = "coarse"
	js, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "churn-unknown-backend.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := runHeterosim(t, "-scenario", path, "-format=csv")
	if code != 2 {
		t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown backend") {
		t.Errorf("stderr does not name the unknown backend:\n%s", stderr)
	}
}
