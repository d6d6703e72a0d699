package gostats

import (
	"encoding/gob"
	"net"
	"testing"
	"time"

	"gostats/internal/broker"
	"gostats/internal/telemetry"
)

// A producer speaking the retired gob protocol is refused at the
// handshake, by name and counted, and publishes nothing. The test lives
// outside internal/broker, which no longer imports encoding/gob.
func TestGobClientRefused(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := broker.NewServer()
	srv.Metrics = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	type frame struct {
		Op    string
		Queue string
		Body  []byte
	}
	if err := gob.NewEncoder(conn).Encode(frame{Op: "pub", Queue: "q", Body: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err == nil {
		t.Fatalf("server answered a gob client with %d bytes instead of hanging up", n)
	}
	const refused = `gostats_broker_handshake_refused_total{reason="foreign"}`
	deadline := time.Now().Add(3 * time.Second)
	vals := telemetry.ParseExposition(reg.Exposition())
	for vals[refused] != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		vals = telemetry.ParseExposition(reg.Exposition())
	}
	if vals[refused] != 1 {
		t.Errorf("%s = %g, want 1", refused, vals[refused])
	}
	if qs := srv.QueueCounts("q"); qs.Published != 0 {
		t.Errorf("gob publish was accepted: %+v", qs)
	}
}
