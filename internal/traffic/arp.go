package traffic

import (
	"time"

	"netco/internal/packet"
)

// arpState is a host's address-resolution machinery: a cache plus
// pending resolutions with retry.
type arpState struct {
	cache   map[packet.IPAddr]packet.MAC
	pending map[packet.IPAddr][]func(packet.MAC, bool)
	retries map[packet.IPAddr]int
}

// ARP retry policy.
const (
	arpRetryInterval = 100 * time.Millisecond
	arpMaxRetries    = 3
)

// arpLazy returns the host's ARP state, allocating it on first use so
// hosts that never touch the packet stack stay map-free.
func (h *Host) arpLazy() *arpState {
	if h.arp == nil {
		h.arp = &arpState{
			cache:   make(map[packet.IPAddr]packet.MAC),
			pending: make(map[packet.IPAddr][]func(packet.MAC, bool)),
			retries: make(map[packet.IPAddr]int),
		}
	}
	return h.arp
}

// Resolve looks up the MAC for ip, answering from the cache or by
// broadcasting ARP requests (with retries). done fires exactly once with
// (mac, true) on success or (zero, false) after the retries expire.
func (h *Host) Resolve(ip packet.IPAddr, done func(packet.MAC, bool)) {
	h.arpLazy()
	if mac, ok := h.arp.cache[ip]; ok {
		done(mac, true)
		return
	}
	first := len(h.arp.pending[ip]) == 0
	h.arp.pending[ip] = append(h.arp.pending[ip], done)
	if first {
		h.arp.retries[ip] = 0
		h.sendARPRequest(ip)
	}
}

func (h *Host) sendARPRequest(ip packet.IPAddr) {
	h.Send(packet.NewARPRequest(h.Endpoint(0), ip))
	h.sched.After(arpRetryInterval, func() { h.arpRetry(ip) })
}

func (h *Host) arpRetry(ip packet.IPAddr) {
	if h.arp == nil || len(h.arp.pending[ip]) == 0 {
		return // resolved meanwhile
	}
	h.arp.retries[ip]++
	if h.arp.retries[ip] >= arpMaxRetries {
		waiters := h.arp.pending[ip]
		delete(h.arp.pending, ip)
		delete(h.arp.retries, ip)
		for _, done := range waiters {
			done(packet.MAC{}, false)
		}
		return
	}
	h.sendARPRequest(ip)
}

// handleARP processes an incoming ARP frame.
func (h *Host) handleARP(pkt *packet.Packet) {
	a, err := packet.ParseARP(pkt.Payload)
	if err != nil {
		h.stats.RxUnclaimed++
		return
	}
	// Opportunistic learning from any valid sender binding.
	if a.SenderIP != (packet.IPAddr{}) {
		h.arpLazy()
		h.arp.cache[a.SenderIP] = a.SenderMAC
		if waiters := h.arp.pending[a.SenderIP]; len(waiters) > 0 {
			delete(h.arp.pending, a.SenderIP)
			delete(h.arp.retries, a.SenderIP)
			for _, done := range waiters {
				done(a.SenderMAC, true)
			}
		}
	}
	if a.Op == packet.ARPRequest && a.TargetIP == h.ip {
		h.Send(packet.NewARPReply(h.Endpoint(0), a))
	}
}
