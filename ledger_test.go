package socksdirect_test

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

// The exact half of the ledger gate (ARCHITECTURE.md "Continuous
// benchmarks"): every sim_* value of the seven benchmark/ workloads at
// -short size is a sum of costmodel constants along a deterministic
// schedule, so a run either reproduces the
// committed snapshot to the last digit or something moved virtual time.
// CI's ledger-smoke step runs
//
//	bash benchmark/run.sh -short -json > ledger_ci.json
//	go test -run TestLedgerSimSnapshot . -ledger ledger_ci.json
//
// and -update-ledger rewrites the snapshot from the run, which is only
// right in a change that means to move virtual time and says so.
var (
	ledgerRun    = flag.String("ledger", "", "ledger JSON of a -short run to check against "+ledgerSnapshot)
	updateLedger = flag.Bool("update-ledger", false, "rewrite "+ledgerSnapshot+" from -ledger")
)

const ledgerSnapshot = "LEDGER_short_sim.json"

func TestLedgerSimSnapshot(t *testing.T) {
	if *ledgerRun == "" {
		t.Skip("no -ledger file given")
	}
	var run struct {
		Short    bool `json:"short"`
		EndToEnd []struct {
			Name    string `json:"name"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		} `json:"end_to_end"`
	}
	readJSON(t, *ledgerRun, &run)
	if !run.Short || len(run.EndToEnd) == 0 {
		t.Fatalf("%s is not a -short ledger with end-to-end rows", *ledgerRun)
	}
	got := map[string]map[string]float64{}
	for _, w := range run.EndToEnd {
		got[w.Name] = map[string]float64{}
		for name, m := range w.Metrics {
			if strings.HasPrefix(name, "sim_") {
				got[w.Name][name] = m.Value
			}
		}
	}
	if *updateLedger {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerSnapshot, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]map[string]float64
	readJSON(t, ledgerSnapshot, &want)
	for workload, metrics := range want {
		for name, v := range metrics {
			if g, ok := got[workload][name]; !ok {
				t.Errorf("%s %s: in the snapshot, not in the run", workload, name)
			} else if g != v {
				t.Errorf("%s %s = %v, snapshot has %v", workload, name, g, v)
			}
		}
	}
	for workload, metrics := range got {
		for name := range metrics {
			if _, ok := want[workload][name]; !ok {
				t.Errorf("%s %s: in the run, not in the snapshot", workload, name)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
