package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// oversized returns a syntactically valid JSON object that opens with
// prefix and is padded past maxBodyBytes, so only the size cap can
// reject it.
func oversized(prefix string) string {
	return prefix + strings.Repeat(" ", maxBodyBytes) + "}"
}

// wantTooLarge posts body to url and expects a 413 naming the cap.
func wantTooLarge(t *testing.T, url, body string) {
	t.Helper()
	resp, got := postJSON(t, url, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST %s with a %d-byte body: status %d, want 413: %s", url, len(body), resp.StatusCode, got)
	}
	if !strings.Contains(got, "too large") {
		t.Fatalf("413 body %q does not say the request was too large", got)
	}
}

func TestSimulateBodyTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	wantTooLarge(t, srv.URL+"/simulate", oversized(`{"strictModel":"ResNet 50"`))
}

func TestPlaneConfigBodyTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	wantTooLarge(t, srv.URL+"/v1/plane", oversized(`{"seed":3`))
}

func TestTenantCreateBodyTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	wantTooLarge(t, srv.URL+"/v1/tenants", oversized(`{"id":"acme","model":"ResNet 18"`))
}

func TestIngestBodyTooLarge(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	if resp, body := postJSON(t, srv.URL+"/v1/tenants", `{"id":"acme","model":"ResNet 18"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant create status = %d: %s", resp.StatusCode, body)
	}
	wantTooLarge(t, srv.URL+"/v1/tenants/acme/requests", oversized(`{"n":1,"vt":0.1`))
	// The plane is untouched and a normal ingest still goes through.
	if resp, body := postJSON(t, srv.URL+"/v1/tenants/acme/requests", `{"n":1,"vt":0.1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after a rejected body: status %d: %s", resp.StatusCode, body)
	}
}

// TestPlaneConfigRejectsShards pins the removal of the plane's shard
// option: a body that still sets it is a 400 naming the unknown field,
// not a silent accept.
func TestPlaneConfigRejectsShards(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	resp, body := postJSON(t, srv.URL+"/v1/plane", `{"shards":4}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`POST /v1/plane {"shards":4}: status %d, want 400: %s`, resp.StatusCode, body)
	}
	if !strings.Contains(body, "unknown field") || !strings.Contains(body, "shards") {
		t.Fatalf("400 body %q does not name the unknown field shards", body)
	}
}
