package webserver

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// clfTime is the Common Log Format timestamp layout.
const clfTime = "02/Jan/2006:15:04:05 -0700"

// clfStamp is the time every formatted line carries: a Record has no
// timestamp, because no analysis reads one.
var clfStamp = time.Date(2024, 11, 3, 15, 4, 5, 0, time.UTC).Format(clfTime)

// formatCLF renders a request record in Combined Log Format, the format
// real measurement studies (and the paper's server-side analyses) consume:
//
//	remote - - [time] "GET /path HTTP/1.1" status bytes "-" "user-agent"
//
// The time is clfStamp.
func formatCLF(r Record) string {
	return fmt.Sprintf("%s - - [%s] %q %d %d %q %q",
		r.RemoteIP,
		clfStamp,
		"GET "+r.Path+" HTTP/1.1",
		r.Status,
		r.Bytes,
		"-",
		r.UserAgent,
	)
}

// writeCLF writes the site's current log to w in Combined Log Format.
func writeCLF(w io.Writer, s *Site) error {
	for _, rec := range s.Log() {
		if _, err := fmt.Fprintln(w, formatCLF(rec)); err != nil {
			return err
		}
	}
	return nil
}

func sampleRecord() Record {
	return Record{
		RemoteIP:  "24.0.1.10",
		UserAgent: "Mozilla/5.0; compatible; GPTBot/1.1",
		Path:      "/gallery/art1.png",
		Status:    200,
		Bytes:     520,
	}
}

func TestFormatCLF(t *testing.T) {
	line := formatCLF(sampleRecord())
	for _, want := range []string{
		"24.0.1.10 - - [03/Nov/2024:15:04:05 +0000]",
		`"GET /gallery/art1.png HTTP/1.1" 200 520`,
		`"Mozilla/5.0; compatible; GPTBot/1.1"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("CLF line missing %q:\n%s", want, line)
		}
	}
}

func TestCLFRoundTrip(t *testing.T) {
	rec := sampleRecord()
	parsed, skipped, err := parseCLF(strings.NewReader(formatCLF(rec) + "\n"))
	if err != nil || skipped != 0 {
		t.Fatalf("parse: %v, skipped=%d", err, skipped)
	}
	if len(parsed) != 1 {
		t.Fatalf("records = %d", len(parsed))
	}
	if got := parsed[0]; got != rec {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

func TestParseCLFSkipsCorruptLines(t *testing.T) {
	input := formatCLF(sampleRecord()) + "\n" +
		"not a log line\n" +
		"1.2.3.4 - - [bad time] \"GET / HTTP/1.1\" 200 10 \"-\" \"ua\"\n" +
		"1.2.3.4 - - [03/Nov/2024:15:04:05 +0000] \"GET / HTTP/1.1\" xx 10 \"-\" \"ua\"\n"
	parsed, skipped, err := parseCLF(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || skipped != 3 {
		t.Fatalf("parsed=%d skipped=%d, want 1/3", len(parsed), skipped)
	}
}

func TestWriteCLFFromLiveSite(t *testing.T) {
	// End to end: serve traffic, export CLF, parse it back, and verify
	// the measurement pipeline could classify from the re-parsed log.
	nw := netsim.New()
	site := startSite(t, nw, WildcardDisallowSite("clf.test", "203.0.113.30"))
	client := nw.HTTPClient("24.0.1.77")
	get(t, client, site.URL()+"/robots.txt", "GPTBot/1.1")
	get(t, client, site.URL()+"/", "Bytespider/2.0")

	var sb strings.Builder
	if err := writeCLF(&sb, site); err != nil {
		t.Fatal(err)
	}
	records, skipped, err := parseCLF(strings.NewReader(sb.String()))
	if err != nil || skipped != 0 {
		t.Fatalf("parse: %v skipped=%d\n%s", err, skipped, sb.String())
	}
	if len(records) != 2 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0].Path != "/robots.txt" || !strings.Contains(records[0].UserAgent, "GPTBot") {
		t.Errorf("first record = %+v", records[0])
	}
	if records[1].RemoteIP != "24.0.1.77" {
		t.Errorf("remote IP lost: %+v", records[1])
	}
}

// parseCLF reads Combined Log Format lines back into records. Lines that
// do not parse are skipped and counted, the way log-analysis pipelines
// tolerate corrupt entries. It is the round-trip oracle for formatCLF.
func parseCLF(r io.Reader) (records []Record, skipped int, err error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	for scanner.Scan() {
		rec, ok := parseCLFLine(scanner.Text())
		if !ok {
			skipped++
			continue
		}
		records = append(records, rec)
	}
	if err := scanner.Err(); err != nil {
		return records, skipped, fmt.Errorf("webserver: reading log: %w", err)
	}
	return records, skipped, nil
}

func parseCLFLine(line string) (Record, bool) {
	var rec Record
	// remote - - [time] "request" status bytes "referer" "ua"
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return rec, false
	}
	rec.RemoteIP = line[:sp]

	lb := strings.IndexByte(line, '[')
	rb := strings.IndexByte(line, ']')
	if lb < 0 || rb < lb {
		return rec, false
	}
	if _, err := time.Parse(clfTime, line[lb+1:rb]); err != nil {
		return rec, false
	}

	rest := line[rb+1:]
	req, rest, ok := quoted(rest)
	if !ok {
		return rec, false
	}
	parts := strings.Fields(req)
	if len(parts) < 2 {
		return rec, false
	}
	rec.Path = parts[1]

	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return rec, false
	}
	status, err1 := strconv.Atoi(fields[0])
	bytes, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil {
		return rec, false
	}
	rec.Status, rec.Bytes = status, bytes

	// Skip the referer, take the user agent.
	if _, rest2, ok := quoted(rest); ok {
		if ua, _, ok := quoted(rest2); ok {
			rec.UserAgent = ua
		}
	}
	return rec, true
}

// quoted extracts the first double-quoted segment of s and returns it
// with the remainder after the closing quote.
func quoted(s string) (content, rest string, ok bool) {
	start := strings.IndexByte(s, '"')
	if start < 0 {
		return "", "", false
	}
	end := strings.IndexByte(s[start+1:], '"')
	if end < 0 {
		return "", "", false
	}
	return s[start+1 : start+1+end], s[start+2+end:], true
}
