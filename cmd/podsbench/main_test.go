package main

import "testing"

func TestQuickSweepAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-quick", "-csv", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleExperimentSelection(t *testing.T) {
	for _, exp := range []string{"T1", "T2", "E1", "BACK"} {
		if err := run([]string{"-quick", "-exp", exp, "-csv", t.TempDir()}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}
