package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveRaw POSTs body byte for byte (no re-marshalling, so spelling and
// whitespace survive) and returns the status, error code and cache
// disposition.
func serveRaw(s *Server, path, body string) (status int, code, cache string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &env)
	return rec.Code, env.Error.Code, rec.Header().Get("X-Partree-Cache")
}

// validBodies holds one well-formed request per /v1 path.
var validBodies = map[string]string{
	"/v1/huffman":          `{"weights":[5,9,12,13,16,45]}`,
	"/v1/shannonfano":      `{"weights":[0.4,0.3,0.2,0.1]}`,
	"/v1/treefromdepths":   `{"depths":[1,2,3,3]}`,
	"/v1/obst":             `{"keys":[0.15,0.1,0.05],"gaps":[0.05,0.1,0.05,0.05]}`,
	"/v1/lincfl/recognize": `{"grammar":"palindrome","word":"abcba"}`,
}

// TestCanonicalKeyParity: CanonicalKey runs the handler's own parse, so
// for every /v1 path, over valid bodies and the decode fuzz seeds, it
// fails exactly when the backend answers 400, with the same error code.
// (A 400 from the solver itself, code "engine", is a result the key
// cannot foresee; no body here provokes one.)
func TestCanonicalKeyParity(t *testing.T) {
	s := New(Config{Workers: 2, Logf: t.Logf})
	defer s.Close()
	for _, path := range fuzzPaths {
		for _, body := range append([]string{validBodies[path]}, decodeSeeds...) {
			_, kerr := CanonicalKey(path, []byte(body), s.cfg.Limits)
			status, code, _ := serveRaw(s, path, body)
			if status != http.StatusOK && status != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d", path, body, status)
			}
			if (kerr != nil) != (status == http.StatusBadRequest) {
				t.Errorf("%s %s: CanonicalKey err = %v, backend status %d", path, body, kerr, status)
				continue
			}
			var ae *apiError
			if kerr != nil && (!errors.As(kerr, &ae) || ae.Code != code) {
				t.Errorf("%s %s: CanonicalKey err = %v, backend code %q", path, body, kerr, code)
			}
		}
	}
	if _, err := CanonicalKey("/v1/nosuch", []byte(`{}`), Limits{}); err == nil {
		t.Error("CanonicalKey accepted an unknown path")
	}
}

// TestCanonicalSpellingsHitCache: two spellings with one canonical key
// hit one cache entry — the second POST (different raw bytes, so the
// raw-body fast path misses) is answered from the canonical cache, and
// the handler stores its result under exactly the key CanonicalKey
// computes: the handler's key and the gateway's key are one function.
func TestCanonicalSpellingsHitCache(t *testing.T) {
	cases := []struct {
		name, path, first, second string
	}{
		{"huffman 1 vs 1.0", "/v1/huffman", `{"weights":[1,2,3,4]}`, `{"weights":[1.0,2.0,3.0,4.0]}`},
		{"huffman x2", "/v1/huffman", `{"weights":[5,9,12,13]}`, `{"weights":[10,18,24,26]}`},
		{"huffman whitespace", "/v1/huffman", `{"weights":[7,1,3]}`, "{ \"weights\" :\n [ 7, 1, 3 ] }"},
		{"shannonfano 1 vs 1.0", "/v1/shannonfano", `{"weights":[1,1,2]}`, `{"weights":[1.0,1.0,2.0]}`},
		{"shannonfano x2", "/v1/shannonfano", `{"weights":[3,5,8]}`, `{"weights":[6,10,16]}`},
		{"treefromdepths whitespace", "/v1/treefromdepths", `{"depths":[1,2,2]}`, ` {"depths": [1, 2, 2]} `},
		{"obst x2", "/v1/obst", `{"keys":[1,2],"gaps":[1,1,1]}`, `{"keys":[2,4],"gaps":[2,2,2]}`},
		{"obst field order", "/v1/obst", `{"keys":[3,1],"gaps":[1,2,1]}`, `{"gaps":[1,2,1],"keys":[3,1]}`},
		{"obst 1 vs 1.0", "/v1/obst", `{"keys":[1,5],"gaps":[1,1,1]}`, `{"keys":[1.0,5.0],"gaps":[1.0,1.0,1.0]}`},
		{"lincfl field order", "/v1/lincfl/recognize", `{"grammar":"palindrome","word":"abba"}`, `{"word":"abba","grammar":"palindrome"}`},
		{"lincfl whitespace", "/v1/lincfl/recognize", `{"grammar":"equalends","word":"aba"}`, `{ "grammar" : "equalends" , "word" : "aba" }`},
	}
	s := New(Config{Workers: 2, Logf: t.Logf})
	defer s.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k1, err1 := CanonicalKey(tc.path, []byte(tc.first), s.cfg.Limits)
			k2, err2 := CanonicalKey(tc.path, []byte(tc.second), s.cfg.Limits)
			if err1 != nil || err2 != nil || k1 != k2 {
				t.Fatalf("keys %q (%v) vs %q (%v), want one key", k1, err1, k2, err2)
			}
			if status, code, cache := serveRaw(s, tc.path, tc.first); status != http.StatusOK || cache != "miss" {
				t.Fatalf("first spelling: status %d %s, cache %q; want 200 miss", status, code, cache)
			}
			s.cache.mu.Lock()
			_, stored := s.cache.items[k1]
			s.cache.mu.Unlock()
			if !stored {
				t.Fatalf("handler cached the result under a key other than CanonicalKey's %q", k1)
			}
			if status, code, cache := serveRaw(s, tc.path, tc.second); status != http.StatusOK || cache != "hit" {
				t.Fatalf("second spelling: status %d %s, cache %q; want 200 hit", status, code, cache)
			}
		})
	}
}
