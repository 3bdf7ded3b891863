package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestFaultTablesGolden pins the rendered tables of the four fault
// experiments at tiny scale to SHA-256 hashes. Every arm of every scenario
// is seeded, so a run must render byte-identically to the pinned output:
// a drift means the fault path changed behaviour (event order, injection
// timing, verdicts), not just its code.
func TestFaultTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every arm of the four fault experiments")
	}
	cases := []struct {
		name string
		run  func(*Env) ([]*Table, error)
		sum  string
	}{
		{"chaos", ChaosRecovery, "cae8f2d6320c0b2456e2c3f1ab1552deceec0cf7a57f0be04b82972ffc134cbe"},
		{"grayfail", GrayFail, "745c2ac184d5a75e8d0eaf51615cec362ff63e831ca68173f73d395d09e71f9a"},
		{"domainfail", DomainFail, "3fd088d4b82a419954c7ff09261ce597b0ac3695aaec084fabf11416badc2727"},
		{"overload", OverloadStorm, "b4cc62ac5c9d311cc4dc0c0bb8b3f0b80198041fd34aca0b75690e618c887c13"},
	}
	env := testEnv(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tables, err := tc.run(env)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tb := range tables {
				b.WriteString(tb.String())
			}
			sum := sha256.Sum256([]byte(b.String()))
			if got := hex.EncodeToString(sum[:]); got != tc.sum {
				t.Errorf("rendered tables drifted:\n got  %s\n want %s\n%s", got, tc.sum, b.String())
			}
		})
	}
}
