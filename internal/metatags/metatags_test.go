package metatags

import "testing"

func TestScanBasic(t *testing.T) {
	d := Scan(`<html><head><meta name="robots" content="noai, noimageai"></head></html>`)
	if !d.NoAI || !d.NoImageAI {
		t.Fatalf("directives = %+v", d)
	}
}

func TestScanSingleQuotesAndCase(t *testing.T) {
	d := Scan(`<META NAME='ROBOTS' CONTENT='NoAI'>`)
	if !d.NoAI || d.NoImageAI {
		t.Fatalf("directives = %+v", d)
	}
}

func TestScanOtherDirectives(t *testing.T) {
	d := Scan(`<meta name="robots" content="noindex, nofollow, noai">`)
	if !d.NoAI {
		t.Fatal("noai missing")
	}
	if len(d.Other) != 2 {
		t.Fatalf("other = %v", d.Other)
	}
}

func TestScanIgnoresNonRobotsMeta(t *testing.T) {
	d := Scan(`<meta name="description" content="noai art site">
<meta property="og:title" content="noai">`)
	if d.NoAI || d.NoImageAI {
		t.Fatal("non-robots meta tags must be ignored")
	}
}

func TestScanNoMeta(t *testing.T) {
	d := Scan(`<html><body>plain page</body></html>`)
	if d.NoAI || d.NoImageAI || len(d.Other) != 0 {
		t.Fatal("plain page must be empty")
	}
}

func TestScanMultipleTags(t *testing.T) {
	d := Scan(`<meta name="robots" content="noindex">
<meta name="robots" content="noai">`)
	if !d.NoAI {
		t.Fatal("second robots tag must be honored")
	}
}

func TestScanMalformed(t *testing.T) {
	// Unclosed tag must not panic or loop.
	d := Scan(`<meta name="robots" content="noai`)
	if d.NoAI {
		t.Fatal("unclosed tag should not parse")
	}
}

func TestGenerateAndScanExactCounts(t *testing.T) {
	pages := generateHomepages(1000, 17, 16, 3)
	res := scanAll(pages)
	if res.Scanned != 1000 || res.NoAI != 17 || res.NoImageAI != 16 {
		t.Fatalf("scan = %+v", res)
	}
}

func TestRunTop10kScan(t *testing.T) {
	res := RunTop10kScan(3)
	if res.Scanned != paperTopN {
		t.Fatalf("scanned = %d", res.Scanned)
	}
	if res.NoAI != paperNoAI || res.NoImageAI != paperNoImageAI {
		t.Fatalf("scan = %+v, want 17/16 (§2.2)", res)
	}
}

func TestAttr(t *testing.T) {
	if got := attr(`<meta name="robots" content="noai">`, "content"); got != "noai" {
		t.Fatalf("attr = %q", got)
	}
	if got := attr(`<meta name=robots>`, "name"); got != "" {
		t.Fatalf("unquoted attr = %q (unsupported form must be empty)", got)
	}
}
