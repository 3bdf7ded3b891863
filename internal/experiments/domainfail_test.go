package experiments

import (
	"strings"
	"testing"
)

// TestDomainFailTiny runs the correlated-failure experiment at tiny scale:
// the protected arm (spread placement + scarcity triage + re-spread) must
// pass the restoration bar while the bare arm eats the outages.
// TestFaultTablesGolden pins the rendered tables byte for byte.
func TestDomainFailTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a domain-outage storm against three deployments")
	}
	env := testEnv(t)
	tables, err := DomainFail(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || len(tables[0].Rows) == 0 || len(tables[1].Rows) == 0 {
		t.Fatalf("tables: %v", tables)
	}
	summary := tables[1].String()
	if !strings.Contains(summary, "PASS") {
		t.Fatalf("restoration verdict not PASS:\n%s", summary)
	}
	for _, row := range tables[1].Rows {
		if row[0] == "dropped queries" {
			for i, cell := range row[1:] {
				if n := atof(t, cell); n != 0 {
					t.Fatalf("arm %d dropped %v queries:\n%s", i, n, summary)
				}
			}
		}
		if row[0] == "node casualties" {
			if n := atof(t, row[3]); n == 0 {
				t.Fatalf("protected arm saw no casualties — the storm never landed:\n%s", summary)
			}
		}
	}

}
