package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"semloc/internal/core"
	"semloc/internal/sim"
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
	if _, err := LoadConfig(writeConfig(t, `{"context": {"CSTEntries": 0}}`)); err == nil {
		t.Error("expected validation error for an explicit zero CST size")
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

// TestLoadConfigSetsOnlyWhatTheFileSets: for every field a file can set in
// the context section and in the machine's CPU and Cache, a file setting
// only that field (to a valid value other than its default) yields the
// default configuration with that one field changed.
func TestLoadConfigSetsOnlyWhatTheFileSets(t *testing.T) {
	ctxDef := core.DefaultConfig()
	ctxDef.Seed = 0
	simDef := sim.DefaultConfig()
	sections := []struct {
		name   string
		def    reflect.Value
		prefix []string
		skip   map[string]bool
	}{
		{"context", reflect.ValueOf(ctxDef), nil, map[string]bool{"Seed": true}},
		{"sim", reflect.ValueOf(simDef.CPU), []string{"CPU"}, map[string]bool{"OnWarmupEnd": true, "Progress": true}},
		{"sim", reflect.ValueOf(simDef.Cache), []string{"Cache"}, nil},
	}
	n := 0
	for _, sec := range sections {
		for _, path := range leafFields(sec.def.Type(), nil, sec.skip) {
			want := reflect.New(sec.def.Type()).Elem()
			want.Set(sec.def)
			leaf := want.FieldByIndex(path.index)
			setOther(t, leaf)
			file := map[string]any{sec.name: nest(append(sec.prefix, path.names...), leaf.Interface())}
			raw, err := json.Marshal(file)
			if err != nil {
				t.Fatal(err)
			}
			fc, err := LoadConfig(writeConfig(t, string(raw)))
			if err != nil {
				t.Errorf("%s: %v", raw, err)
				continue
			}
			var got reflect.Value
			switch sec.name {
			case "context":
				got = reflect.ValueOf(*fc.Context)
			default:
				if fc.Context != nil {
					t.Errorf("%s: a file without a context section yields one", raw)
				}
				got = reflect.ValueOf(fc.SimConfig()).FieldByName(sec.prefix[0])
			}
			if !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Errorf("%s: got %+v\nwant %+v", raw, got.Interface(), want.Interface())
			}
			n++
		}
	}
	// 20 context fields (Reward's five counted singly), 5 CPU and 14 Cache.
	if n < 39 {
		t.Fatalf("only %d fields checked", n)
	}
}

// fieldPath locates one leaf field inside a config struct.
type fieldPath struct {
	names []string
	index []int
}

// leafFields lists the exported non-struct fields of t, descending into
// struct fields, except those named in skip and func or pointer fields,
// which no file can meaningfully set.
func leafFields(t reflect.Type, parent []int, skip map[string]bool) []fieldPath {
	var out []fieldPath
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || skip[f.Name] || f.Type.Kind() == reflect.Func || f.Type.Kind() == reflect.Pointer {
			continue
		}
		index := append(append([]int(nil), parent...), i)
		if f.Type.Kind() == reflect.Struct {
			for _, sub := range leafFields(f.Type, index, nil) {
				out = append(out, fieldPath{append([]string{f.Name}, sub.names...), sub.index})
			}
			continue
		}
		out = append(out, fieldPath{[]string{f.Name}, index})
	}
	return out
}

// setOther sets v to a valid value other than the default it holds.
func setOther(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Uint, reflect.Uint8, reflect.Uint64:
		if v.IsZero() {
			v.Set(reflect.ValueOf(1).Convert(v.Type()))
		} else if v.CanInt() {
			v.SetInt(2 * v.Int())
		} else {
			v.SetUint(2 * v.Uint())
		}
	case reflect.Float64:
		v.SetFloat(2 * v.Float())
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.ValueOf([]int{1, 2}))
	default:
		t.Fatalf("no other value for a %s field", v.Type())
	}
}

// nest builds {names[0]: {names[1]: ... v}}.
func nest(names []string, v any) any {
	for i := len(names) - 1; i >= 0; i-- {
		v = map[string]any{names[i]: v}
	}
	return v
}

// TestLoadConfigKeepsDefaultsAndExplicitZeros: a field a file omits keeps
// its default even when that default is zero or false elsewhere in the
// section, and a zero the file sets is kept.
func TestLoadConfigKeepsDefaultsAndExplicitZeros(t *testing.T) {
	ctxDef := core.DefaultConfig()
	ctxDef.Seed = 0
	// Restating a default changes nothing: adaptive epsilon stays on, and
	// MSHRReserve and ScoreThreshold keep their defaults.
	fc, err := LoadConfig(writeConfig(t, `{"context": {"MaxDegree": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*fc.Context, ctxDef) {
		t.Errorf("restating MaxDegree gives %+v, want the defaults %+v", *fc.Context, ctxDef)
	}
	// An explicit zero is taken as given.
	fc, err = LoadConfig(writeConfig(t, `{"context": {"Epsilon": 0}, "sim": {"CPU": {"MispredictPenalty": 0}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Context.Epsilon != 0 || fc.SimConfig().CPU.MispredictPenalty != 0 {
		t.Errorf("explicit zeros read back as Epsilon %v, MispredictPenalty %d", fc.Context.Epsilon, fc.SimConfig().CPU.MispredictPenalty)
	}
	// A file that sets only the L2's size runs on a 1 MiB L2.
	fc, err = LoadConfig(writeConfig(t, `{"sim": {"Cache": {"L2": {"Size": 1048576}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	wantL2 := sim.DefaultConfig().Cache.L2
	wantL2.Size = 1 << 20
	if got := fc.SimConfig().Cache.L2; got != wantL2 {
		t.Errorf("L2 %+v, want %+v", got, wantL2)
	}
	// The ablation table's flat reward keeps the default window.
	fc, err = LoadConfig(writeConfig(t, `{"context": {"Reward": {"Flat": true}}}`))
	if err != nil {
		t.Fatal(err)
	}
	wantReward := core.DefaultRewardConfig()
	wantReward.Flat = true
	if fc.Context.Reward != wantReward {
		t.Errorf("flat reward %+v, want %+v", fc.Context.Reward, wantReward)
	}
}
