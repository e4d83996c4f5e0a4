package experiments

import "testing"

func TestE19Introspection(t *testing.T) {
	row, err := E19Introspection(4_000, 120, 400)
	if err != nil {
		t.Fatalf("E19 failed: %v (row %+v)", err, row)
	}
	if row.DownCritical == 0 {
		t.Error("E19: no critical finding while the victim was down")
	}
	if row.LagParts == 0 || row.LagPeak == 0 {
		t.Errorf("E19: cold revive surfaced no replication lag: parts=%d peak=%d",
			row.LagParts, row.LagPeak)
	}
	if !row.CaughtUp {
		t.Error("E19: catch-up did not drain the lag")
	}
	if row.BaselineQPS <= 0 || row.TreatedQPS <= 0 || row.NullQPS <= 0 || row.Pairs <= 0 {
		t.Errorf("E19: served nothing: %+v", row.Overhead)
	}
	if row.LogLines == 0 {
		t.Error("E19: instrumented phase emitted no log lines")
	}
}
