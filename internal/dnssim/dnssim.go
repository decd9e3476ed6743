// Package dnssim is a miniature DNS record store used by the §4.4
// hosting-provider identification: the paper determines which provider
// hosts an artist site by whether the site is a subdomain of the provider
// or by where the domain's DNS records point.
package dnssim

import (
	"fmt"
	"strings"
)

// recordType is the subset of DNS record types the identification needs.
type recordType int

const (
	// recordA maps a name to an IPv4 address.
	recordA recordType = iota
	// recordCNAME aliases a name to another name.
	recordCNAME
)

// record is one DNS resource record.
type record struct {
	Type  recordType
	Value string
}

// Zone is a flat record store. The zero value is not usable; use NewZone.
type Zone struct {
	records map[string][]record
}

// NewZone returns an empty zone.
func NewZone() *Zone {
	return &Zone{records: make(map[string][]record)}
}

// SetA adds an A record for name.
func (z *Zone) SetA(name, ip string) {
	key := strings.ToLower(name)
	z.records[key] = append(z.records[key], record{Type: recordA, Value: ip})
}

// SetCNAME adds a CNAME record for name.
func (z *Zone) SetCNAME(name, target string) {
	key := strings.ToLower(name)
	z.records[key] = append(z.records[key], record{Type: recordCNAME, Value: strings.ToLower(target)})
}

// lookup returns the records for name.
func (z *Zone) lookup(name string) []record {
	return z.records[strings.ToLower(name)]
}

// ResolveA follows CNAME chains (up to 8 hops) and returns the terminal
// A-record addresses for name.
func (z *Zone) ResolveA(name string) ([]string, error) {
	cur := strings.ToLower(name)
	for hop := 0; hop < 8; hop++ {
		recs := z.lookup(cur)
		if len(recs) == 0 {
			return nil, fmt.Errorf("dnssim: NXDOMAIN %s", name)
		}
		var ips []string
		var next string
		for _, r := range recs {
			switch r.Type {
			case recordA:
				ips = append(ips, r.Value)
			case recordCNAME:
				next = r.Value
			}
		}
		if len(ips) > 0 {
			return ips, nil
		}
		if next == "" {
			return nil, fmt.Errorf("dnssim: no address for %s", name)
		}
		cur = next
	}
	return nil, fmt.Errorf("dnssim: CNAME chain too long for %s", name)
}

// CNAMETarget returns the terminal CNAME target of name, if any.
func (z *Zone) CNAMETarget(name string) (string, bool) {
	cur := strings.ToLower(name)
	var last string
	for hop := 0; hop < 8; hop++ {
		var next string
		for _, r := range z.lookup(cur) {
			if r.Type == recordCNAME {
				next = r.Value
			}
		}
		if next == "" {
			break
		}
		last = next
		cur = next
	}
	return last, last != ""
}

// IsSubdomainOf reports whether name is a (strict) subdomain of apex.
func IsSubdomainOf(name, apex string) bool {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	apex = strings.ToLower(strings.TrimSuffix(apex, "."))
	return name != apex && strings.HasSuffix(name, "."+apex)
}
