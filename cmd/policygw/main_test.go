package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
)

func TestParseReplicas(t *testing.T) {
	for _, c := range []struct {
		spec    string
		want    []fleet.ReplicaConfig
		wantErr string
	}{
		{
			spec: "localhost:8473",
			want: []fleet.ReplicaConfig{{Name: "policyd-0@localhost:8473", FrameAddr: "localhost:8474"}},
		},
		{
			spec: "10.0.0.1:8473:9000, 10.0.0.2:8483",
			want: []fleet.ReplicaConfig{
				{Name: "policyd-0@10.0.0.1:8473", FrameAddr: "10.0.0.1:9000"},
				{Name: "policyd-1@10.0.0.2:8483", FrameAddr: "10.0.0.2:8484"},
			},
		},
		{spec: "h:1:2:3", wantErr: "host:json:frame"},
		{spec: "h", wantErr: "host:json:frame"},
		{spec: "h:x", wantErr: `bad port "x"`},
		{spec: "h:1:y", wantErr: `bad port "y"`},
		{spec: "h:80x", wantErr: `bad port "80x"`},
		{spec: "h:-5", wantErr: `bad port "-5"`},
		{spec: "h:99999999", wantErr: `bad port "99999999"`},
		{spec: "h:1:0", wantErr: `bad port "0"`},
		{spec: "h:65535", wantErr: "frame port 65536 out of range"},
		{spec: " , ", wantErr: "-replicas is required"},
	} {
		got, err := parseReplicas(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parseReplicas(%q) err %v, want one mentioning %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseReplicas(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		}
	}
}
