// Rpcservice: a conventional client/server RPC application (the "SunRPC"
// and "Legacy Apps" boxes of Fig. 1) carried over virtual networks. A
// key/value service runs event-driven on one node; clients on other nodes
// issue puts and gets, including a value large enough to fragment.
package main

import (
	"encoding/binary"
	"fmt"

	"virtnet/internal/hostos"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

const (
	procPut = 1
	procGet = 2
)

func packKV(key string, val []byte) []byte {
	out := make([]byte, 2+len(key)+len(val))
	binary.LittleEndian.PutUint16(out, uint16(len(key)))
	copy(out[2:], key)
	copy(out[2+len(key):], val)
	return out
}

func unpackKV(b []byte) (string, []byte) {
	n := int(binary.LittleEndian.Uint16(b))
	return string(b[2 : 2+n]), b[2+n:]
}

func main() {
	cluster := hostos.NewCluster(21, 4, hostos.DefaultClusterConfig())
	defer cluster.Shutdown()

	server, err := rpc.NewServer(cluster.Nodes[0], 0xBEEF)
	if err != nil {
		panic(err)
	}
	store := map[string][]byte{}
	server.Register(procPut, func(p *sim.Proc, args []byte) ([]byte, error) {
		k, v := unpackKV(args)
		store[k] = append([]byte(nil), v...)
		return nil, nil
	})
	server.Register(procGet, func(p *sim.Proc, args []byte) ([]byte, error) {
		v, ok := store[string(args)]
		if !ok {
			return nil, fmt.Errorf("no key %q", args)
		}
		return v, nil
	})
	stop := false
	cluster.Nodes[0].Spawn("kv-server", func(p *sim.Proc) {
		server.Serve(p, func() bool { return stop })
	})

	finished := 0
	for i := 1; i <= 3; i++ {
		i := i
		cluster.Nodes[i].Spawn("client", func(p *sim.Proc) {
			cl, err := rpc.NewClient(cluster.Nodes[i], server.Name(), 0xBEEF)
			if err != nil {
				panic(err)
			}
			key := fmt.Sprintf("client-%d", i)
			big := make([]byte, 20*1024*i) // fragments across the 8 KB MTU
			for j := range big {
				big[j] = byte(i*j + 1)
			}
			if _, err := cl.Call(p, procPut, packKV(key, big), 0); err != nil {
				panic(err)
			}
			back, err := cl.Call(p, procGet, []byte(key), 0)
			if err != nil {
				panic(err)
			}
			if len(back) != len(big) || back[100] != big[100] {
				panic("kv round trip corrupted")
			}
			fmt.Printf("client %d: put+get %d KB at t=%v\n", i, len(big)/1024, sim.Duration(p.Now()))
			finished++
			if finished == 3 {
				stop = true
			}
		})
	}
	cluster.RunFor(5 * sim.Second)
	if finished != 3 {
		panic("clients did not finish")
	}
	fmt.Printf("kv service handled %d calls over virtual networks\n", server.Served)
}
