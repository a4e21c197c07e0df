package exp

import (
	"os"
	"path/filepath"
	"testing"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigDefaults(t *testing.T) {
	fc, err := LoadConfig(writeConfig(t, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if fc.SimConfig().Cache.DRAMLatency != 300 {
		t.Error("empty config should yield Table 2 defaults")
	}
	if fc.Context != nil {
		t.Error("empty config should leave the prefetcher at its defaults")
	}
}

func TestLoadConfigPartialOverride(t *testing.T) {
	fc, err := LoadConfig(writeConfig(t, `{
		"sim": {"Cache": {"DRAMLatency": 200}},
		"context": {"MaxDegree": 2, "Epsilon": 0.1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	mc := fc.SimConfig()
	if mc.Cache.DRAMLatency != 200 {
		t.Errorf("DRAMLatency = %d, want 200", mc.Cache.DRAMLatency)
	}
	if mc.Cache.L1.Size != 64<<10 {
		t.Error("unspecified fields should keep defaults")
	}
	cc := fc.Context
	if cc.MaxDegree != 2 || cc.Epsilon != 0.1 {
		t.Errorf("context overrides lost: %+v", cc)
	}
	if cc.CSTEntries != 2048 {
		t.Error("unspecified context fields should keep defaults")
	}
}

func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := LoadConfig(writeConfig(t, `{"smi": {}}`)); err == nil {
		t.Error("expected error for unknown top-level field")
	}
}

func TestLoadConfigRejectsInvalidValues(t *testing.T) {
	if _, err := LoadConfig(writeConfig(t, `{"context": {"CSTEntries": 1000}}`)); err == nil {
		t.Error("expected validation error for non-power-of-two CST")
	}
	if _, err := LoadConfig(writeConfig(t, `{"sim": {"Cache": {"L1": {"Name":"x","Size": 100, "Ways": 3, "MSHRs": 1, "Latency": 1}}}}`)); err == nil {
		t.Error("expected validation error for bad cache geometry")
	}
	if _, err := LoadConfig(writeConfig(t, `{"context": {"Seed": 7}}`)); err == nil {
		t.Error("expected an error for a context Seed, which -seed derives")
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig("/does/not/exist.json"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadConfigBadJSON(t *testing.T) {
	if _, err := LoadConfig(writeConfig(t, `{not json`)); err == nil {
		t.Error("expected parse error")
	}
}

func TestNilFileConfig(t *testing.T) {
	var fc *FileConfig
	if fc.SimConfig().CPU.Width != 4 {
		t.Error("nil FileConfig should yield defaults")
	}
}
