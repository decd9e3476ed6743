package webserver

import (
	"fmt"
	"io"
)

// clfTime is the Common Log Format timestamp layout.
const clfTime = "02/Jan/2006:15:04:05 -0700"

// FormatCLF renders a request record in Combined Log Format, the format
// real measurement studies (and the paper's server-side analyses) consume:
//
//	remote - - [time] "GET /path HTTP/1.1" status bytes "-" "user-agent"
func FormatCLF(r Record) string {
	return fmt.Sprintf("%s - - [%s] %q %d %d %q %q",
		r.RemoteIP,
		r.Time.Format(clfTime),
		"GET "+r.Path+" HTTP/1.1",
		r.Status,
		r.Bytes,
		"-",
		r.UserAgent,
	)
}

// WriteCLF writes the site's current log to w in Combined Log Format.
func (s *Site) WriteCLF(w io.Writer) error {
	for _, rec := range s.Log() {
		if _, err := fmt.Fprintln(w, FormatCLF(rec)); err != nil {
			return err
		}
	}
	return nil
}
