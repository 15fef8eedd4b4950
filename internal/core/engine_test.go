package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// engineGoldens pins each engineVersion to the SHA-256 of the committed
// goldens. A re-pinned golden means the engine's output changed under
// unchanged options, so it must come with an engineVersion bump and a
// new row here; the old rows stay as the record of what each version
// produced.
var engineGoldens = map[int]map[string]string{
	1: {
		"testdata/golden_default.json":       "9a793797760160f613138b31584150ea902f8d3f475c240fbbd9b9a0c608569b",
		"testdata/golden_fast.json":          "d5cedc2130e8999bb6baa84117b60efcbca6790a7ddcdf82ff05aeba26d5102a",
		"../denoise/testdata/tv_golden.json": "f03c91581d30648db31dc45ba358c2f2fe9f637094a5e9bf3779995ef9c42232",
	},
	2: {
		"testdata/golden_default.json":       "1ef53180201e3ae86902748adbe0125d25911768a4688c87a0050dd8e7b9f06f",
		"testdata/golden_fast.json":          "d5cedc2130e8999bb6baa84117b60efcbca6790a7ddcdf82ff05aeba26d5102a",
		"../denoise/testdata/tv_golden.json": "f03c91581d30648db31dc45ba358c2f2fe9f637094a5e9bf3779995ef9c42232",
	},
}

// TestEngineVersionPinsGoldens fails when a golden changes without an
// engineVersion bump: the bump is what keeps a cache or checkpoint store
// written by the old engine from serving its bytes as the new engine's.
func TestEngineVersionPinsGoldens(t *testing.T) {
	row, ok := engineGoldens[engineVersion]
	if !ok {
		t.Fatalf("engineVersion %d has no row in engineGoldens: add one with the current golden sums", engineVersion)
	}
	for path, want := range row {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s changed under engine version %d (sha256 %s, pinned %s): bump engineVersion and add its row to engineGoldens",
				path, engineVersion, got, want)
		}
	}
}
