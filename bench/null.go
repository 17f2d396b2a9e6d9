package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// The reference ("null") server and the one-CPU pin: the two things that
// make a wall-clock number repeat on a shared host. README "Steadiness"
// has the measurements behind both.

// serveNull is the harness's own binary run with -null: an HTTP server
// that does what topod's transport does and nothing else. POST
// /null?lines=L&bytes=B reads the body and answers L lines of B bytes,
// flushing after each as topod does, then a stats trailer. It shares no
// code with the program under test, so a change to topod cannot move it;
// the host's speed moves both.
func serveNull(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Println("null: listening on", ln.Addr())
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("/null", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		lines, _ := strconv.Atoi(r.URL.Query().Get("lines"))
		size, _ := strconv.Atoi(r.URL.Query().Get("bytes"))
		line := append(bytes.Repeat([]byte{'x'}, max(size-1, 0)), '\n')
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "response writer cannot flush", http.StatusInternalServerError)
			return
		}
		for i := 0; i < lines; i++ {
			_, _ = w.Write(line)
			fl.Flush()
		}
		_, _ = io.WriteString(w, `{"stats":{}}`+"\n")
	})
	return http.Serve(ln, mux)
}

// startNull runs this executable as the reference server.
func startNull(client *http.Client) (*topod, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startServer(client, self, []string{"-null"})
}

// nullShape is the answer the reference server gives beside a workload:
// about what topod's answers there look like on the wire. It is a
// constant, not measured from topod, so that a change to topod's output
// leaves the reference alone.
type nullShape struct {
	lines, lineBytes int
	// nominal is the reference's closed-loop rate, requests per second,
	// driven by the workload's clients on the machine this harness was
	// written on, on a quiet minute. Only the scale of the normalised
	// metrics depends on it.
	nominal float64
}

func (s nullShape) request(body []byte) request {
	return request{
		kind: kQuery, method: "POST", body: body,
		path: "/null?lines=" + strconv.Itoa(s.lines) + "&bytes=" + strconv.Itoa(s.lineBytes),
	}
}

// pinToOneCPU confines every thread of this process — and with them every
// process it starts from now on — to the highest-numbered CPU it may run
// on, and returns that CPU. Generator and server then take turns on one
// core instead of waking each other across two: on a virtual machine a
// wake-up of an idle CPU is an exit to a host that may be busy with
// someone else, and that, not the program, is what two cores measure.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// A thread started while the loop runs inherits its creator's mask, old
	// or new; a second pass catches the old ones.
	for pass := 0; pass < 2; pass++ {
		tasks, err := filepath.Glob("/proc/self/task/*")
		if err != nil || len(tasks) == 0 {
			return 0, fmt.Errorf("listing /proc/self/task: %v", err)
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(filepath.Base(t))
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return 0, fmt.Errorf("sched_setaffinity(%d): %v", tid, errno)
			}
		}
	}
	return cpu, nil
}
