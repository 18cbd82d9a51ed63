package echo

import (
	"fmt"
	"net"
	"testing"

	"ccx/internal/testx"
)

// BenchmarkBridgeEvent streams events of 1 MiB and 15 MiB (about the
// largest a bridge carries) from one domain to another over loopback TCP:
// the encode, write, read, check and submit cost of one bridged event.
func BenchmarkBridgeEvent(b *testing.B) {
	for _, size := range []int{1 << 20, 15 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				c, _ := ln.Accept()
				accepted <- c
			}()
			c1, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			c2 := <-accepted
			prodDomain := NewDomain()
			b1, b2 := NewBridge(prodDomain, c1), NewBridge(NewDomain(), c2)
			defer func() {
				b1.Close()
				b2.Close()
				<-b1.Done()
				<-b2.Done()
			}()
			prod := prodDomain.OpenChannel("bench")
			cons, err := b2.ImportChannel("bench")
			if err != nil {
				b.Fatal(err)
			}
			got := make(chan int, 1)
			cons.Subscribe(func(ev Event) { got <- len(ev.Data) })
			testx.WaitUntil(b, "export subscription", func() bool { return prod.Subscribers() > 0 })
			ev := Event{Data: make([]byte, size), Attrs: Attributes{"k": "v"}}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				prod.Submit(ev)
				if n := <-got; n != size {
					b.Fatalf("delivered %d bytes, want %d", n, size)
				}
			}
		})
	}
}
