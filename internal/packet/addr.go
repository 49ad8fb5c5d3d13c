// Package packet models the frames that flow through the emulated network:
// Ethernet (with optional 802.1Q VLAN tag), IPv4, TCP, UDP and ICMP echo.
//
// Packets exist in two representations. The struct form (Packet) is what
// nodes manipulate; the wire form ([]byte, produced by Marshal) is what the
// NetCo compare element compares bit-by-bit, exactly as the paper's C
// prototype does with memcmp(3) over raw Ethernet frames. Marshal and
// Unmarshal are exact inverses for well-formed packets, a property enforced
// by the package's quick-check tests.
package packet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// HostMAC returns a deterministic locally-administered unicast MAC for host
// index n; used by topology builders.
func HostMAC(n uint32) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	binary.BigEndian.PutUint32(m[2:], n)
	return m
}

// String returns the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether the group bit is set (includes broadcast).
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IPAddr is an IPv4 address.
type IPAddr [4]byte

// HostIP returns the deterministic address 10.0.x.y for host index n;
// used by topology builders.
func HostIP(n uint32) IPAddr {
	return IPAddr{10, 0, byte(n >> 8), byte(n)}
}

// String returns dotted-quad notation.
func (ip IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian integer (for OpenFlow nw
// matching).
func (ip IPAddr) Uint32() uint32 { return binary.BigEndian.Uint32(ip[:]) }
