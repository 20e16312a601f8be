package job

import (
	"encoding/json"
	"testing"
)

// FuzzJobSpecJSON feeds the job decoder hostile documents: whatever
// arrives in a server's job frame or a -job file must either decode into
// a job that validates (and then round-trips through JSON losslessly) or
// fail with a clean error — never panic. This is the server's entire
// input surface beyond the frame codec itself.
func FuzzJobSpecJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"spec":{"backend":"pool","seed":42},"grid":{"devices":["XR1"],"modes":["local"],"sizes":[500]}}`))
	f.Add([]byte(`{"kind":"report","spec":{"seed":1,"train_rows":2000,"test_rows":500}}`))
	f.Add([]byte(`{"spec":{"backend":"net"}}`))                        // net without nodes
	f.Add([]byte(`{"spec":{"backend":"pool","nodes":["x:1"]}}`))       // nodes without net
	f.Add([]byte(`{"spec":{"workers":-1}}`))                           // negative count
	f.Add([]byte(`{"spec":{"trials":-3,"backend":"teleport"}}`))       // several at once
	f.Add([]byte(`{"kind":"sweep","format":"xml","spec":{"seed":1}}`)) // bad format
	f.Add([]byte(`{"spec":{"seed":9223372036854775807}}`))             // extreme seed
	f.Add([]byte("{\"spec\":{\"backend\":\"\\u0000\"}}"))
	f.Add([]byte(`{"spec":{"backend":"net","fleet":{"nodes_file":"/tmp/f","no_steal":true}}}`))
	f.Add([]byte(`{"spec":{"backend":"net","fleet":{"register":"127.0.0.1:7900"}}}`))
	f.Add([]byte(`{"spec":{"backend":"net","nodes":["a:1"],"fleet":{"nodes_file":"/tmp/f"}}}`)) // two sources
	f.Add([]byte(`{"spec":{"backend":"pool","fleet":{"no_steal":true}}}`))                      // retired key: an inert, valid fleet
	f.Add([]byte(`{"kind":"population","spec":{"seed":7},"population":{"scenario":"offload","users":12,"frames":5}}`))
	f.Add([]byte(`{"kind":"population","spec":{"seed":7},"population":{"users":-1}}`))
	f.Add([]byte(`{"kind":"population","format":"csv","spec":{"seed":7}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := Decode(data)
		if err != nil {
			return
		}
		if err := j.Validate(); err != nil {
			// Invalid documents must still describe themselves cleanly.
			if err.Error() == "" {
				t.Fatal("validation error with empty message")
			}
			return
		}
		// A valid job must round-trip: encode, decode, validate again,
		// and agree with itself — the byte-identity contract between the
		// CLI flags path and the server's JSON path depends on it.
		out, err := json.Marshal(j)
		if err != nil {
			t.Fatalf("valid job did not re-encode: %v", err)
		}
		j2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded job did not decode: %v", err)
		}
		if err := j2.Validate(); err != nil {
			t.Fatalf("round-tripped job stopped validating: %v", err)
		}
		out2, err := json.Marshal(j2)
		if err != nil {
			t.Fatalf("round-tripped job did not re-encode: %v", err)
		}
		if string(out) != string(out2) {
			t.Fatalf("job JSON is not a fixed point:\nfirst  %s\nsecond %s", out, out2)
		}
	})
}
