package analyzers_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/analysistest"
)

// TestDetClock exercises the wall-clock/math-rand ban: seeded
// violations inside the deterministic surface, the sanctioned sim.RNG
// and duration-constant forms, non-deterministic packages (allowed),
// the sim/rng.go exemption, and documented suppressions.
func TestDetClock(t *testing.T) {
	cases := []struct {
		name, dir, asPath string
	}{
		{"pos", "testdata/src/detclock/pos", "repro/internal/hdd"},
		{"neg", "testdata/src/detclock/neg", "repro/internal/hdd"},
		{"outside-det-surface", "testdata/src/detclock/outside", "repro/internal/pfsnet"},
		{"rng-source-exempt", "testdata/src/detclock/rngexempt", "repro/internal/sim"},
		{"allow-directive", "testdata/src/detclock/allow", "repro/internal/hdd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			analysistest.Run(t, analyzers.DetClock, tc.dir, tc.asPath)
		})
	}
}

// TestDetMapRange exercises the iteration-order-escape checks and the
// collect-then-sort negative cases.
func TestDetMapRange(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.DetMapRange, "testdata/src/detmaprange/pos", "repro/internal/fixture/maprange")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.DetMapRange, "testdata/src/detmaprange/neg", "repro/internal/fixture/maprange")
	})
}

// TestObsNil exercises the nil-sink contract: unguarded bundle and
// tracer dereferences (including through closures and unguardable call
// chains) versus every guarded idiom used in the tree.
func TestObsNil(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.ObsNil, "testdata/src/obsnil/pos", "repro/internal/fixture/obsfix")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.ObsNil, "testdata/src/obsnil/neg", "repro/internal/fixture/obsfix")
	})
}

// TestLockIO exercises the no-I/O-under-lock discipline: socket, file,
// and ObjectStore calls inside critical sections versus
// snapshot-then-act, in-memory-only, and documented serial-by-design
// holds.
func TestLockIO(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.LockIO, "testdata/src/lockio/pos", "repro/internal/fixture/lockfix")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.LockIO, "testdata/src/lockio/neg", "repro/internal/fixture/lockfix")
	})
}

// TestBufOwn exercises the pooled-buffer ownership contract: uses
// after putBuf / writeFrame / exchange / metaCall handoffs (including
// branch joins and loop-carried uses) versus capture-before-handoff,
// rebinding, deferred release, terminating branches, and a documented
// waiver.
func TestBufOwn(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.BufOwn, "testdata/src/bufown/pos", "repro/internal/fixture/bufownfix")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.BufOwn, "testdata/src/bufown/neg", "repro/internal/fixture/bufownfix")
	})
}

// TestAtomicMix exercises the atomic/plain mixing check: promoted and
// explicit spellings of an atomically-accessed field, package-level
// variables, same-named fields of distinct structs, composite-literal
// initialization, atomic wrapper types, and a documented waiver.
func TestAtomicMix(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.AtomicMix, "testdata/src/atomicmix/pos", "repro/internal/fixture/atomfix")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.AtomicMix, "testdata/src/atomicmix/neg", "repro/internal/fixture/atomfix")
	})
}

// TestLockOrder exercises the lock-acquisition-order check: a direct
// two-mutex cycle, an interprocedural cycle through a helper, a
// self-deadlock, and the negative shapes (consistent order,
// release-before-next, block-scoped deferred unlocks, goroutine
// boundaries, fully-releasing helpers).
func TestLockOrder(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.LockOrder, "testdata/src/lockorder/pos", "repro/internal/fixture/lockordfix")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.LockOrder, "testdata/src/lockorder/neg", "repro/internal/fixture/lockordfix")
	})
}

// TestGoSpawn exercises the goroutine shutdown-path check: unkillable
// spawns and opaque callees versus every accepted evidence form
// (select, channel ops, WaitGroup joins, context, close hooks through
// callee chains and deferred Closes), plus path scoping — a package
// outside internal/{pfsnet,faults,runner} is not checked.
func TestGoSpawn(t *testing.T) {
	t.Run("pos", func(t *testing.T) {
		analysistest.Run(t, analyzers.GoSpawn, "testdata/src/gospawn/pos", "repro/internal/pfsnet")
	})
	t.Run("neg", func(t *testing.T) {
		analysistest.Run(t, analyzers.GoSpawn, "testdata/src/gospawn/neg", "repro/internal/pfsnet")
	})
	t.Run("outside-enforced-surface", func(t *testing.T) {
		analysistest.Run(t, analyzers.GoSpawn, "testdata/src/gospawn/outside", "repro/internal/fixture/spawnfix")
	})
}

// TestStaleWaiver: a //lint:allow that suppresses nothing is reported
// as stale, one naming an unknown analyzer is reported
// unconditionally, and a used one stays silent.
func TestStaleWaiver(t *testing.T) {
	loader, err := analyzers.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs("testdata/src/stale")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "repro/internal/hdd")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analyzers.RunAnalyzers([]*analyzers.Analyzer{analyzers.DetClock}, []*analyzers.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (stale waiver + unknown analyzer), got %d: %+v", len(diags), diags)
	}
	var sawStale, sawUnknown bool
	for _, d := range diags {
		if strings.Contains(d.Message, "stale //lint:allow detclock") {
			sawStale = true
		}
		if strings.Contains(d.Message, `unknown analyzer "detclok"`) {
			sawUnknown = true
		}
	}
	if !sawStale || !sawUnknown {
		t.Fatalf("want both the stale-waiver and unknown-analyzer reports, got %+v", diags)
	}
}

// TestStaleWaiverScopedToRunSet: a directive for an analyzer that is
// known but NOT in the run set is neither stale nor unknown — single-
// analyzer runs must not flag the other analyzers' waivers.
func TestStaleWaiverScopedToRunSet(t *testing.T) {
	loader, err := analyzers.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs("testdata/src/stale")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "repro/internal/hdd")
	if err != nil {
		t.Fatal(err)
	}
	// lockio never fires here and the detclock directives are out of its
	// run set; only the unknown-analyzer report must survive.
	diags, err := analyzers.RunAnalyzers([]*analyzers.Analyzer{analyzers.LockIO}, []*analyzers.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `unknown analyzer "detclok"`) {
		t.Fatalf("want only the unknown-analyzer report, got %+v", diags)
	}
}

// TestVetJSON: the machine-readable output is a JSON array of findings
// whose fields match the plain-text format field for field.
func TestVetJSON(t *testing.T) {
	var buf bytes.Buffer
	n, err := analyzers.VetJSON(".", []string{"./internal/analyzers/testdata/src/bufown/pos"}, []*analyzers.Analyzer{analyzers.BufOwn}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("want findings from the bufown pos fixture, got none")
	}
	var fs []analyzers.Finding
	if err := json.Unmarshal(buf.Bytes(), &fs); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(fs) != n {
		t.Fatalf("returned count %d != decoded findings %d", n, len(fs))
	}
	for _, f := range fs {
		if f.Analyzer != "bufown" || f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Message == "" {
			t.Fatalf("incomplete finding: %+v", f)
		}
		if filepath.IsAbs(f.File) || strings.Contains(f.File, `\`) {
			t.Fatalf("File must be module-root-relative with forward slashes, got %q", f.File)
		}
	}
	// A clean run must still emit a JSON array, not empty output.
	buf.Reset()
	n, err = analyzers.VetJSON(".", []string{"./internal/analyzers/testdata/src/bufown/neg"}, []*analyzers.Analyzer{analyzers.BufOwn}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("neg fixture should be clean, got %d findings:\n%s", n, buf.String())
	}
	if err := json.Unmarshal(buf.Bytes(), &fs); err != nil || len(fs) != 0 {
		t.Fatalf("clean run must emit an empty JSON array, got %q (err %v)", buf.String(), err)
	}
}

// TestDeterministicOutput: lockorder and gospawn render byte-identical
// diagnostics across two independent loads — the graph walks and
// report ordering must not leak map iteration order.
func TestDeterministicOutput(t *testing.T) {
	render := func(a *analyzers.Analyzer, dir, asPath string) string {
		loader, err := analyzers.NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(abs, asPath)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analyzers.RunAnalyzers([]*analyzers.Analyzer{a}, []*analyzers.Package{pkg})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			fmt.Fprintf(&sb, "%s:%d:%d: [%s] %s\n", filepath.Base(pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
		}
		return sb.String()
	}
	cases := []struct {
		a      *analyzers.Analyzer
		dir    string
		asPath string
	}{
		{analyzers.LockOrder, "testdata/src/lockorder/pos", "repro/internal/fixture/lockordfix"},
		{analyzers.GoSpawn, "testdata/src/gospawn/pos", "repro/internal/pfsnet"},
	}
	for _, tc := range cases {
		first := render(tc.a, tc.dir, tc.asPath)
		if first == "" {
			t.Fatalf("%s: pos fixture rendered no diagnostics", tc.a.Name)
		}
		for i := 0; i < 2; i++ {
			if again := render(tc.a, tc.dir, tc.asPath); again != first {
				t.Fatalf("%s output differs across runs:\n--- first\n%s--- again\n%s", tc.a.Name, first, again)
			}
		}
	}
}

// TestMalformedDirective: a //lint:allow with no reason is itself
// reported and does not suppress the finding under it.
func TestMalformedDirective(t *testing.T) {
	loader, err := analyzers.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs("testdata/src/detclock/malformed")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, "repro/internal/hdd")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analyzers.RunAnalyzers([]*analyzers.Analyzer{analyzers.DetClock}, []*analyzers.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (malformed directive + unsuppressed finding), got %d: %+v", len(diags), diags)
	}
	var sawMalformed, sawFinding bool
	for _, d := range diags {
		if strings.Contains(d.Message, "malformed //lint:allow") {
			sawMalformed = true
		}
		if strings.Contains(d.Message, "wall-clock") {
			sawFinding = true
		}
	}
	if !sawMalformed || !sawFinding {
		t.Fatalf("want both the malformed-directive report and the unsuppressed finding, got %+v", diags)
	}
}

// TestByName covers multichecker analyzer selection.
func TestByName(t *testing.T) {
	as, err := analyzers.ByName("detclock, lockio")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "detclock" || as[1].Name != "lockio" {
		t.Fatalf("unexpected selection: %+v", as)
	}
	if _, err := analyzers.ByName("nosuch"); err == nil {
		t.Fatal("want error for unknown analyzer")
	}
	if as, err := analyzers.ByName(""); err != nil || len(as) != len(analyzers.All()) {
		t.Fatalf("empty selection should yield the whole suite, got %v, %v", as, err)
	}
}

// TestVetCleanOnTree is the repo gate in test form: the whole invariant
// suite must run clean over every package, exactly as `make lint` (via
// cmd/ibridge-vet ./...) requires.
func TestVetCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var buf bytes.Buffer
	n, err := analyzers.Vet(".", []string{"./..."}, analyzers.All(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("invariant suite found %d finding(s) on the tree:\n%s", n, buf.String())
	}
}
