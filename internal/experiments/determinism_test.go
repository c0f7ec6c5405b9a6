package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
)

// renderAt runs one experiment at smoke scale under the given jobs
// setting and returns the rendered table.
func renderAt(t *testing.T, id string, jobs int) string {
	t.Helper()
	runner.SetJobs(jobs)
	tbl, err := Run(id, Smoke)
	if err != nil {
		t.Fatalf("%s (jobs=%d): %v", id, jobs, err)
	}
	return tbl.Render()
}

// TestRenderDeterministicAcrossRuns is the regression test for the
// determinism guarantee: the same seed must render byte-identical
// tables across independent runs. fig2b exercises the client/server
// pipeline; fig12 additionally sweeps explicit config seeds.
func TestRenderDeterministicAcrossRuns(t *testing.T) {
	if raceEnabled {
		t.Skip("four full smoke evaluations; under -race the package blows its timeout — the race gate covers the harness via TestRenderDeterministicAcrossJobs")
	}
	defer runner.SetJobs(0)
	for _, id := range []string{"fig2b", "fig12"} {
		first := renderAt(t, id, 0)
		second := renderAt(t, id, 0)
		if first != second {
			t.Errorf("%s: two runs with the same seed rendered different tables:\n--- first ---\n%s\n--- second ---\n%s",
				id, first, second)
		}
	}
}

// TestRenderDeterministicUnderObservability checks the zero-perturbation
// half of the observability contract: enabling the full instrumentation
// stack (metrics + tracing + T_i sampling) must render byte-identical
// tables to a bare run, both rendered by the parallel runner at its
// default width. Probes only read simulation state, so the event order — and therefore every measured
// quantity — may not shift. The trace export itself must be
// deterministic too: two observed fig2b runs at jobs=1 must write
// byte-identical Chrome traces (at jobs>1 the run<N> lane numbering
// follows the order clusters are built in).
func TestRenderDeterministicUnderObservability(t *testing.T) {
	if raceEnabled {
		t.Skip("six smoke evaluations, four instrumented; under -race the package blows its timeout — the race gate covers the harness via TestRenderDeterministicAcrossJobs")
	}
	defer SetObs(nil)
	defer runner.SetJobs(0)
	// observe runs id under a fresh observability set at the given jobs
	// setting and returns the rendered table and the Chrome trace export.
	observe := func(id string, jobs int) (string, []byte) {
		set := obs.New(obs.Config{Metrics: true, Trace: true, SampleEvery: 100 * sim.Millisecond})
		SetObs(set)
		observed := renderAt(t, id, jobs)
		// The instrumented run must actually have produced telemetry —
		// otherwise the identity checks prove nothing.
		if set.Tracer().Len() == 0 {
			t.Errorf("%s: instrumented run recorded no trace events", id)
		}
		if len(set.Registry().Snapshot()) == 0 {
			t.Errorf("%s: instrumented run registered no metrics", id)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeX(&buf, set.Tracer().Events()); err != nil {
			t.Fatalf("%s: WriteChromeX: %v", id, err)
		}
		var chrome struct {
			TraceEvents []map[string]interface{} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
			t.Fatalf("%s: trace output is not valid JSON: %v", id, err)
		}
		if len(chrome.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace export is empty", id)
		}
		return observed, buf.Bytes()
	}
	for _, id := range []string{"fig2b", "fig12"} {
		SetObs(nil)
		bare := renderAt(t, id, 0)
		observed, _ := observe(id, 0)
		if bare != observed {
			t.Errorf("%s: observability changed the rendered table:\n--- bare ---\n%s\n--- observed ---\n%s",
				id, bare, observed)
		}
	}
	_, first := observe("fig2b", 1)
	_, second := observe("fig2b", 1)
	if !bytes.Equal(first, second) {
		t.Errorf("fig2b: two observed runs at jobs=1 exported different Chrome traces (%d vs %d bytes)",
			len(first), len(second))
	}
}

// TestRenderDeterministicAcrossJobs checks that the parallel harness
// does not leak host scheduling into results: a serial run (jobs=1)
// and a wide run (jobs=8) must render byte-identical tables.
func TestRenderDeterministicAcrossJobs(t *testing.T) {
	defer runner.SetJobs(0)
	ids := []string{"fig2b", "fig12"}
	if raceEnabled {
		// Keep the race gate's coverage of the parallel fan-out, on the
		// cheaper experiment only.
		ids = ids[:1]
	}
	for _, id := range ids {
		serial := renderAt(t, id, 1)
		wide := renderAt(t, id, 8)
		if serial != wide {
			t.Errorf("%s: jobs=1 and jobs=8 rendered different tables:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				id, serial, wide)
		}
	}
}
