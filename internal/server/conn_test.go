package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"mbrtopo/internal/index"
	"mbrtopo/internal/topo"
)

// heldPair returns the two ends of a loopback TCP connection: the one
// accepted through srv.Listener, and the peer that dialled it.
func heldPair(t *testing.T, srv *Server) (*heldConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hl := srv.Listener(&http.Server{}, ln)
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	c, err := hl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	hc, ok := c.(*heldConn)
	if !ok {
		t.Fatalf("srv.Listener accepted a %T, want a *heldConn", c)
	}
	return hc, peer
}

// readN reads exactly n bytes from c within a second.
func readN(t *testing.T, c net.Conn, n int) string {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(time.Second))
	b := make([]byte, n)
	if _, err := io.ReadFull(c, b); err != nil {
		t.Fatalf("reading %d bytes: %v", n, err)
	}
	return string(b)
}

func TestHeldConn(t *testing.T) {
	t.Run("writes pass through when not held", func(t *testing.T) {
		srv := New(Config{})
		hc, peer := heldPair(t, srv)
		hc.Write([]byte("ab"))
		hc.Write([]byte("cd"))
		if got := readN(t, peer, 4); got != "abcd" {
			t.Fatalf("peer read %q, want abcd", got)
		}
		if n := srv.metrics.socketWrites.Load(); n != 2 {
			t.Fatalf("%d socket writes counted, want 2", n)
		}
	})

	t.Run("a hold leaves in one socket write", func(t *testing.T) {
		srv := New(Config{})
		hc, peer := heldPair(t, srv)
		hc.hold()
		for _, p := range []string{"head", strings.Repeat("x", 5000), "tail"} {
			if n, err := hc.Write([]byte(p)); n != len(p) || err != nil {
				t.Fatalf("held Write: %d, %v", n, err)
			}
		}
		peer.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, _ := peer.Read(make([]byte, 1)); n != 0 || srv.metrics.socketWrites.Load() != 0 {
			t.Fatal("held bytes reached the socket before send")
		}
		if err := hc.send(); err != nil {
			t.Fatal(err)
		}
		if got, want := readN(t, peer, 5008), "head"+strings.Repeat("x", 5000)+"tail"; got != want {
			t.Fatal("the peer read other bytes than were held")
		}
		if n := srv.metrics.socketWrites.Load(); n != 1 || hc.held != nil {
			t.Fatalf("send made %d socket writes and kept a buffer: %v, want 1 and none", n, hc.held != nil)
		}
	})

	t.Run("hold and send off a held connection do nothing", func(t *testing.T) {
		var hc *heldConn
		hc.hold()
		if err := hc.send(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("a failed send is the connection's error from then on", func(t *testing.T) {
		srv := New(Config{})
		hc, peer := heldPair(t, srv)
		hc.hold()
		hc.Write([]byte("lost"))
		hc.SetWriteDeadline(time.Now().Add(-time.Second))
		err := hc.send()
		if err == nil {
			t.Fatal("send past the write deadline succeeded")
		}
		if _, werr := hc.Write([]byte("more")); werr != err {
			t.Fatalf("the Write after a failed send returned %v, want the send's %v", werr, err)
		}
		// The connection is closed: the peer reads its end, not a hang.
		peer.SetReadDeadline(time.Now().Add(time.Second))
		if _, rerr := peer.Read(make([]byte, 1)); rerr != io.EOF {
			t.Fatalf("the peer read %v after a failed send, want EOF", rerr)
		}
	})

	t.Run("ReadFrom and CloseWrite reach the TCP connection", func(t *testing.T) {
		srv := New(Config{})
		hc, peer := heldPair(t, srv)
		var c net.Conn = hc
		rf, ok := c.(io.ReaderFrom)
		if !ok {
			t.Fatal("a held connection is no io.ReaderFrom")
		}
		if n, err := rf.ReadFrom(strings.NewReader("sent")); n != 4 || err != nil {
			t.Fatalf("ReadFrom: %d, %v", n, err)
		}
		cw, ok := c.(interface{ CloseWrite() error })
		if !ok {
			t.Fatal("a held connection has no CloseWrite")
		}
		if err := cw.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		peer.SetReadDeadline(time.Now().Add(time.Second))
		if b, err := io.ReadAll(peer); string(b) != "sent" || err != nil {
			t.Fatalf("peer read %q, %v, want sent and then the end of the stream", b, err)
		}
		if n := srv.metrics.socketWrites.Load(); n != 0 {
			t.Fatalf("ReadFrom went through Write: %d socket writes counted", n)
		}
	})
}

// TestFailedSendEndsStream serves queries on connections whose sends
// all fail: a rule-(a) flush of a long answer, and the sized end of a
// 28 KB one. The traversal must stop at the failed send, the request
// count as a disconnect, and the client see its connection end rather
// than wait.
func TestFailedSendEndsStream(t *testing.T) {
	srv, _, d := newTestServer(t, Config{}, 20000, index.KindRTree)
	ts := startServer(srv, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		connOf(r).SetWriteDeadline(time.Now().Add(-time.Second))
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	inst, err := srv.instance("rtree")
	if err != nil {
		t.Fatal(err)
	}
	ref := d.Queries[0]
	full, err := inst.ReadProc().QuerySetMBR(topo.NewSet(topo.Disjoint), ref)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for i, q := range []QueryRequest{
		{Index: "rtree", Relations: []string{"disjoint"}, Ref: []float64{ref.Min.X, ref.Min.Y, ref.Max.X, ref.Max.Y}},
		{Index: "rtree", Relations: []string{"not_disjoint"}, Ref: []float64{100, 100, 200, 200}},
	} {
		rel := q.Relations[0]
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body)); err == nil {
			resp.Body.Close()
			t.Fatalf("%s: HTTP %d over a connection that cannot send", rel, resp.StatusCode)
		} else if strings.Contains(err.Error(), "Timeout") {
			t.Fatalf("%s: the client waited out its timeout: %v", rel, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.metrics.disconnects.Load() != uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d disconnects, want %d", rel, srv.metrics.disconnects.Load(), i+1)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if i == 0 {
			if folded := srv.metrics.nodeAccesses.Load(); folded == 0 || folded >= full.Stats.NodeAccesses {
				t.Fatalf("the failed send did not stop page reads: folded %d, full traversal is %d", folded, full.Stats.NodeAccesses)
			}
		}
	}
}
