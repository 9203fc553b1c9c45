package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/systolic"
)

var paramSetters = map[string]func(int) systolic.Param{
	systolic.ParamNodes:     systolic.Nodes,
	systolic.ParamDegree:    systolic.Degree,
	systolic.ParamDiameter:  systolic.Diameter,
	systolic.ParamDimension: systolic.Dimension,
	systolic.ParamRows:      systolic.Rows,
	systolic.ParamCols:      systolic.Cols,
	systolic.ParamDepth:     systolic.Depth,
}

// smallestParams returns the parameter sets of kind, with values up to 5,
// that build a network and sum to at most one more than the smallest such
// set.
func smallestParams(t *testing.T, kind string) []map[string]int {
	t.Helper()
	topo, ok := systolic.Lookup(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	names := topo.ParamNames()
	type candidate struct {
		params map[string]int
		sum    int
	}
	var builds []candidate
	minSum := -1
	vals := make([]int, len(names))
	var walk func(i, sum int)
	walk = func(i, sum int) {
		if i < len(names) {
			for v := 0; v <= 5; v++ {
				vals[i] = v
				walk(i+1, sum+v)
			}
			return
		}
		ps := make([]systolic.Param, len(names))
		params := make(map[string]int, len(names))
		for j, name := range names {
			ps[j] = paramSetters[name](vals[j])
			params[name] = vals[j]
		}
		if _, err := systolic.New(kind, ps...); err != nil {
			return
		}
		if minSum < 0 || sum < minSum {
			minSum = sum
		}
		builds = append(builds, candidate{params, sum})
	}
	walk(0, 0)
	var out []map[string]int
	for _, c := range builds {
		if c.sum <= minSum+1 {
			out = append(out, c.params)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no parameters up to 5 build %q", kind)
	}
	return out
}

// TestEveryKindAndProtocolAnswersWithoutServerError posts every registered
// kind, at its smallest parameters, with every catalog protocol to analyze
// and certify, and scans it with broadcast: whatever the request, the
// answer is a result or a 4xx, never a 5xx or an empty body.
func TestEveryKindAndProtocolAnswersWithoutServerError(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	post := func(path string, body AnalyzeRequest) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		if rec.Code >= 500 || rec.Body.Len() == 0 {
			t.Errorf("POST %s %s: status %d, body %q", path, data, rec.Code, rec.Body.String())
		}
	}
	for _, kind := range systolic.Kinds() {
		for _, params := range smallestParams(t, kind) {
			post("/v1/broadcast", AnalyzeRequest{Kind: kind, Params: params})
			post("/v1/broadcast", AnalyzeRequest{Kind: kind, Params: params, AllSources: true})
			for _, proto := range systolic.ProtocolKinds() {
				req := AnalyzeRequest{Kind: kind, Params: params, Protocol: proto, Budget: 2000}
				post("/v1/analyze", req)
				post("/v1/certify", req)
			}
		}
	}
}

// TestBroadcastOnDegreeOneNetwork: a cycle's degree parameter is 1, whose
// broadcasting constant c(1) is +Inf. Both broadcast reports must still
// encode, with c as null.
func TestBroadcastOnDegreeOneNetwork(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	params := map[string]int{"nodes": 6}

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{Kind: "cycle", Params: params})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single source: status %d", resp.StatusCode)
	}
	one := decodeBody[struct {
		Report struct {
			C        *float64 `json:"c"`
			Measured int      `json:"measured_rounds"`
		} `json:"report"`
	}](t, resp).Report
	if one.C != nil {
		t.Errorf("single source: c = %v, want null", *one.C)
	}
	if one.Measured < 3 {
		t.Errorf("single source: measured %d rounds on a 6-cycle, want at least 3", one.Measured)
	}

	resp = postJSON(t, ts.Client(), ts.URL+"/v1/broadcast", AnalyzeRequest{Kind: "cycle", Params: params, AllSources: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all sources: status %d", resp.StatusCode)
	}
	all := decodeBody[struct {
		Report struct {
			Bound *struct {
				C *float64 `json:"c"`
			} `json:"bound"`
			Worst int `json:"worst_rounds"`
		} `json:"report"`
	}](t, resp).Report
	if all.Bound == nil || all.Bound.C != nil {
		t.Errorf("all sources: bound %+v, want one with c null", all.Bound)
	}
	if all.Worst != 3 {
		t.Errorf("all sources: worst %d rounds on a 6-cycle, want 3", all.Worst)
	}
}

func TestWriteJSONEncodeFailureIsServerError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body %q does not decode: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || body["error"] == "" {
		t.Errorf("status %d, body %q; want 500 with an error", rec.Code, rec.Body.String())
	}
}
