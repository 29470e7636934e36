package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odrips/internal/fleet"
	"odrips/internal/jobqueue"
)

// testSpec is the canonical small job every API test submits: fast to
// simulate, heterogeneous enough to exercise shards and run classes.
const testSpec = `{
	"name": "api", "devices": 12, "horizon": "2m", "shards": 3,
	"spread": {
		"drift_ppb": [0, 40],
		"battery_mwh": [30000, 36000],
		"jitter_steps": ["0s", "250ms"]
	}
}`

// startServer brings up a real HTTP server over a fresh queue, whose
// runtime holds a fresh storeless plane; the caller gets the base URL
// and the queue for Hold/Release orchestration.
func startServer(t *testing.T, opts jobqueue.Options) (*httptest.Server, *jobqueue.Queue) {
	t.Helper()
	q := jobqueue.New(opts)
	ts := httptest.NewServer(newServer(q, 2*time.Millisecond).handler())
	t.Cleanup(ts.Close)
	return ts, q
}

func doJSON(t *testing.T, method, url string, body string, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, url, b, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// frame is a decoded NDJSON stream line.
type frame struct {
	Frame   string          `json:"frame"`
	Job     *jobView        `json:"job"`
	Payload json.RawMessage `json:"payload"`
	State   jobqueue.State  `json:"state"`
	Code    string          `json:"code"`
	Message string          `json:"message"`
}

// readStream consumes a results stream, checking NDJSON framing: every
// line is exactly one JSON object, no blank lines, no trailing junk.
func readStream(t *testing.T, url string) []frame {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results stream: content type %q", ct)
	}
	var frames []frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			t.Fatal("blank line inside NDJSON stream")
		}
		var f frame
		dec := json.NewDecoder(bytes.NewReader(line))
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("unparsable stream line %q: %v", line, err)
		}
		if dec.More() {
			t.Fatalf("stream line holds more than one JSON value: %q", line)
		}
		if f.Frame == "" {
			t.Fatalf("frame without discriminator: %q", line)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("empty results stream")
	}
	return frames
}

// framesByKind indexes a stream, keeping the LAST frame of each kind.
func framesByKind(frames []frame) map[string]frame {
	m := make(map[string]frame)
	for _, f := range frames {
		m[f.Frame] = f
	}
	return m
}

func submit(t *testing.T, base, spec string) jobView {
	t.Helper()
	var jv jobView
	code, _ := doJSON(t, http.MethodPost, base+"/v1/jobs", spec, &jv)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if jv.ID == "" || jv.Seq == 0 {
		t.Fatalf("submit: incomplete job view %+v", jv)
	}
	return jv
}

// TestSubmitStreamContract is the happy-path API contract: 202 submit,
// status lookup, and a well-framed results stream whose aggregates
// payload is byte-identical to a direct fleet.Run of the same spec.
func TestSubmitStreamContract(t *testing.T) {
	spec, err := fleet.ParseSpecJSON([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fleet.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := json.Marshal(direct.Aggregates)
	if err != nil {
		t.Fatal(err)
	}

	ts, _ := startServer(t, jobqueue.Options{Workers: 2})
	jv := submit(t, ts.URL, testSpec)
	if jv.State != jobqueue.StatePending && jv.State != jobqueue.StateRunning {
		t.Fatalf("fresh job in state %s", jv.State)
	}

	var got jobView
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jv.ID, "", &got); code != http.StatusOK {
		t.Fatalf("status lookup: %d", code)
	}
	if got.ID != jv.ID {
		t.Fatalf("lookup returned job %s", got.ID)
	}

	frames := readStream(t, ts.URL+"/v1/jobs/"+jv.ID+"/results")
	if frames[0].Frame != "progress" {
		t.Fatalf("stream opens with %q, want progress", frames[0].Frame)
	}
	last := frames[len(frames)-1]
	if last.Frame != "done" || last.State != jobqueue.StateDone {
		t.Fatalf("stream ends with %+v", last)
	}
	kinds := framesByKind(frames)
	for _, want := range []string{"progress", "aggregates", "memo", "shards", "done"} {
		if _, ok := kinds[want]; !ok {
			t.Fatalf("stream missing %q frame", want)
		}
	}
	if string(kinds["aggregates"].Payload) != string(golden) {
		t.Fatalf("streamed aggregates diverge from direct run:\n got %s\nwant %s",
			kinds["aggregates"].Payload, golden)
	}
	// The final progress frame carries the completed counters.
	fp := kinds["progress"].Job
	if fp == nil || fp.Progress.DevicesDone != fp.Progress.Devices {
		t.Fatalf("final progress frame incomplete: %+v", fp)
	}
	// Streams are re-readable: results are not consumed.
	again := framesByKind(readStream(t, ts.URL+"/v1/jobs/"+jv.ID+"/results"))
	if string(again["aggregates"].Payload) != string(golden) {
		t.Fatal("second stream read diverges")
	}
}

// TestWorkerCountByteIdentity: the same spec through queues with 1 and
// 4 workers streams byte-identical aggregates frames.
func TestWorkerCountByteIdentity(t *testing.T) {
	var lines []string
	for _, workers := range []int{1, 4} {
		ts, _ := startServer(t, jobqueue.Options{Workers: workers})
		jv := submit(t, ts.URL, testSpec)
		kinds := framesByKind(readStream(t, ts.URL+"/v1/jobs/"+jv.ID+"/results"))
		lines = append(lines, string(kinds["aggregates"].Payload))
	}
	if lines[0] != lines[1] {
		t.Fatalf("aggregates differ across worker counts:\n w1 %s\n w4 %s", lines[0], lines[1])
	}
}

// TestBadSpec: malformed, unknown-field, and invalid specs all produce
// a typed 400 bad_spec body.
func TestBadSpec(t *testing.T) {
	ts, _ := startServer(t, jobqueue.Options{Workers: 1})
	for _, body := range []string{
		`not json`,
		`{"devices": 2, "typo_knob": 3}`,
		`{"devices": 2, "spread": {"seed_base": 10}}`, // removed field
		`{"devices": 2, "spread": {"seed_stride": 3}}`,
		`{"devices": 2, "workers": 3}`, // removed field
		`{"devices": 0}`,
		`{"devices": 4, "wake_period": "-30s"}`,
		`{"devices": 4, "horizon": "900000h"}`, // sim-time overflow
		`{"devices":12,"horizon":"2m"} {"devices":99999999}`,
		`{"devices":12,"horizon":"2m"} garbage`,
	} {
		var e apiError
		code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &e)
		if code != http.StatusBadRequest || e.Error.Code != "bad_spec" {
			t.Fatalf("body %q: status %d, code %q", body, code, e.Error.Code)
		}
		if e.Error.Message == "" {
			t.Fatalf("body %q: empty error message", body)
		}
	}
}

// TestTooLargeAndQueueFull: fleet-size and backpressure rejections.
func TestTooLargeAndQueueFull(t *testing.T) {
	ts, q := startServer(t, jobqueue.Options{Workers: 1, Capacity: 1, MaxDevices: 100, Hold: true})
	var e apiError
	code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"devices": 101}`, &e)
	if code != http.StatusRequestEntityTooLarge || e.Error.Code != "too_large" {
		t.Fatalf("oversize fleet: status %d code %q", code, e.Error.Code)
	}

	submit(t, ts.URL, testSpec) // fills the held FIFO
	code, hdr := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", testSpec, &e)
	if code != http.StatusServiceUnavailable || e.Error.Code != "queue_full" {
		t.Fatalf("overflow: status %d code %q", code, e.Error.Code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("queue_full without Retry-After")
	}
	q.Release()
}

// TestCancelPendingViaDELETE: a held pending job cancels instantly and
// its results stream reports the cancellation.
func TestCancelPendingViaDELETE(t *testing.T) {
	ts, q := startServer(t, jobqueue.Options{Workers: 1, Capacity: 4, Hold: true})
	jv := submit(t, ts.URL, testSpec)
	var out struct {
		ID    string         `json:"id"`
		State jobqueue.State `json:"state"`
	}
	code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jv.ID, "", &out)
	if code != http.StatusOK || out.State != jobqueue.StateCanceled {
		t.Fatalf("cancel: status %d state %s", code, out.State)
	}
	q.Release()
	frames := readStream(t, ts.URL+"/v1/jobs/"+jv.ID+"/results")
	kinds := framesByKind(frames)
	if kinds["error"].Code != "canceled" {
		t.Fatalf("canceled job streamed %+v", kinds["error"])
	}
	if last := frames[len(frames)-1]; last.Frame != "done" || last.State != jobqueue.StateCanceled {
		t.Fatalf("stream ends with %+v", last)
	}
	if _, ok := kinds["aggregates"]; ok {
		t.Fatal("canceled job streamed aggregates")
	}
}

// TestCancelMidRun: DELETE while the engine is simulating stops the job
// at a device boundary; the stream reports canceled, not done.
func TestCancelMidRun(t *testing.T) {
	// 1024 drift classes → 1024 memo-class chains, far more than the queue
	// runtime's GOMAXPROCS workers → a cancel window of ~100 ms, many
	// scheduler time slices wide, however fast one chain runs.
	var sb strings.Builder
	sb.WriteString(`{"name":"wide","devices":1024,"horizon":"2m","spread":{"drift_ppb":[0`)
	for i := 1; i < 1024; i++ {
		fmt.Fprintf(&sb, ",%d", i*10)
	}
	sb.WriteString(`]}}`)

	ts, _ := startServer(t, jobqueue.Options{Workers: 1})
	jv := submit(t, ts.URL, sb.String())
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobView
		if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+jv.ID, "", &st); code != http.StatusOK {
			t.Fatalf("poll: %d", code)
		}
		if st.Progress.WarmRunsDone > 0 {
			break
		}
		if st.State.Finished() {
			t.Fatal("job finished before the cancel window opened")
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+jv.ID, "", nil); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	frames := readStream(t, ts.URL+"/v1/jobs/"+jv.ID+"/results")
	last := frames[len(frames)-1]
	if last.Frame != "done" || last.State != jobqueue.StateCanceled {
		t.Fatalf("stream ends with %+v", last)
	}
	if framesByKind(frames)["error"].Code != "canceled" {
		t.Fatal("mid-run cancel did not stream a canceled error frame")
	}
}

// TestRoutesAndMethods: every miss is a typed JSON error.
func TestRoutesAndMethods(t *testing.T) {
	ts, _ := startServer(t, jobqueue.Options{Workers: 1})
	cases := []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodGet, "/v1/jobs/job-000001-beef", http.StatusNotFound, "not_found"},
		{http.MethodDelete, "/v1/jobs/job-000001-beef", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/jobs/job-000001-beef/results", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/jobs/x/nope", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/nope", http.StatusNotFound, "not_found"},
		{http.MethodPut, "/v1/jobs", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodGet, "/v1/jobs", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/v1/stats", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, c := range cases {
		var e apiError
		code, _ := doJSON(t, c.method, ts.URL+c.path, "", &e)
		if code != c.status || e.Error.Code != c.code {
			t.Fatalf("%s %s: status %d code %q (want %d %q)",
				c.method, c.path, code, e.Error.Code, c.status, c.code)
		}
	}
	var ok map[string]bool
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", &ok); code != http.StatusOK || !ok["ok"] {
		t.Fatalf("healthz: %d %v", code, ok)
	}
}

// TestHTTPServerTimeouts pins the connection hardening of the server main
// runs: header and idle timeouts are set, and WriteTimeout stays zero so
// long NDJSON result streams are never cut.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newServer(nil, 0).httpServer()
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: read-header %v, idle %v, write %v; want 10s, 2m, 0",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
}

// TestStatsShape: /v1/stats reflects queue activity and exposes the
// memo layers.
func TestStatsShape(t *testing.T) {
	ts, _ := startServer(t, jobqueue.Options{Workers: 2})
	jv := submit(t, ts.URL, testSpec)
	readStream(t, ts.URL+"/v1/jobs/"+jv.ID+"/results") // wait for done
	var sv statsView
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &sv); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if sv.Queue.Capacity == 0 || sv.Queue.Workers != 2 {
		t.Fatalf("queue stats %+v", sv.Queue)
	}
	if sv.Queue.Accepted != 1 || sv.Queue.Done != 1 {
		t.Fatalf("queue counters %+v", sv.Queue)
	}
	if sv.Plane.Classes == 0 {
		t.Fatalf("plane stats empty: %+v", sv.Plane)
	}
	// Every run class of the job's two memo classes shares the preset's
	// seed, so the job builds one platform template.
	if sv.Templates.Puts != 1 || sv.Templates.Cap == 0 {
		t.Fatalf("template stats %+v: want 1 built", sv.Templates)
	}
}
