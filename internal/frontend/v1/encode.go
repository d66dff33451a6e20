package v1

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"

	"hwstar/internal/queries"
	"hwstar/internal/serve"
)

// AppendResponse appends the body of a successful POST /v1/query to dst:
// byte for byte what json.NewEncoder(w).Encode(ResponseFrom(q, tenant,
// priority, wallMs, resp)) writes, trailing newline included, without
// building the QueryResponse, its map[string]int64 of groups, or anything
// else per group. ResponseFrom stays the definition of the wire shape — this
// function is tested against it — and encoding/json stays the definition of
// the language: a string that is not plain ASCII is escaped by json.Marshal
// itself and a float that JSON cannot carry returns json.Marshal's error, so
// the two cannot disagree about an edge they never both met.
func AppendResponse(dst []byte, q *QueryRequest, tenant, priority string, wallMs float64, resp serve.Response) ([]byte, error) {
	var err error
	dst = appendString(append(dst, `{"op":`...), q.Op)
	dst = appendString(append(dst, `,"tenant":`...), tenant)
	dst = appendString(append(dst, `,"priority":`...), priority)
	if q.TraceID != "" {
		dst = appendString(append(dst, `,"trace_id":`...), q.TraceID)
	}
	if dst, err = appendFloat(append(dst, `,"cost":{"sim_cycles":`...), resp.SimCycles); err != nil {
		return nil, err
	}
	if dst, err = appendFloat(append(dst, `,"wall_ms":`...), wallMs); err != nil {
		return nil, err
	}
	dst = strconv.AppendInt(append(dst, `,"batch_size":`...), int64(resp.BatchSize), 10)
	dst = strconv.AppendBool(append(dst, `},"spill":{"spilled":`...), resp.Spilled)
	dst = strconv.AppendInt(append(dst, `,"bytes":`...), resp.SpillBytes, 10)

	// Result: sum always, then whichever omitempty fields the op sets.
	var sum int64
	if q.Op == OpScan {
		sum = resp.Sum
	}
	dst = strconv.AppendInt(append(dst, `},"result":{"sum":`...), sum, 10)
	switch q.Op {
	case OpJoin:
		if resp.Matches != 0 {
			dst = strconv.AppendInt(append(dst, `,"matches":`...), resp.Matches, 10)
		}
		dst = appendHex16(append(dst, `,"checksum":"`...), resp.Checksum)
		dst = append(dst, '"')
	case OpGroupSum:
		if len(resp.Groups) > 0 {
			dst = appendGroups(append(dst, `,"groups":{`...), resp.Groups)
			dst = append(dst, '}')
		}
	case OpQ1:
		if len(resp.Q1Rows) > 0 {
			dst = append(dst, `,"q1_rows":[`...)
			for i := range resp.Q1Rows {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = appendQ1Row(dst, &resp.Q1Rows[i]); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
	case OpQ6:
		if resp.Revenue != 0 {
			if dst, err = appendFloat(append(dst, `,"revenue":`...), resp.Revenue); err != nil {
				return nil, err
			}
		}
	}
	dst = append(dst, '}')

	if resp.Partial {
		dst = append(dst, `,"partial":true`...)
		if resp.CoveredFraction != 0 {
			if dst, err = appendFloat(append(dst, `,"covered_fraction":`...), resp.CoveredFraction); err != nil {
				return nil, err
			}
		}
	}
	return append(dst, "}\n"...), nil
}

func appendQ1Row(dst []byte, r *queries.Q1Row) ([]byte, error) {
	dst = appendString(append(dst, `{"return_flag":`...), r.ReturnFlag)
	dst = appendString(append(dst, `,"line_status":`...), r.LineStatus)
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{`,"sum_qty":`, r.SumQty}, {`,"sum_price":`, r.SumPrice},
		{`,"sum_disc_price":`, r.SumDiscPrice}, {`,"sum_charge":`, r.SumCharge},
		{`,"avg_qty":`, r.AvgQty}, {`,"avg_price":`, r.AvgPrice}, {`,"avg_disc":`, r.AvgDisc},
	} {
		var err error
		if dst, err = appendFloat(append(dst, f.name...), f.v); err != nil {
			return nil, err
		}
	}
	dst = strconv.AppendInt(append(dst, `,"count":`...), r.Count, 10)
	return append(dst, '}'), nil
}

// appendString appends s as a JSON string. Printable ASCII that needs no
// escape — also none of the HTML escapes json.Encoder applies by default — is
// copied between quotes; anything else is json.Marshal's to spell.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string never fails to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, a two-digit
// exponent's leading zero dropped. NaN and the infinities have no JSON form;
// the error is the one json.Marshal returns for them.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// A group waits to be sorted as a fixed-width record in the output buffer
// itself: its key's decimal text, zero-padded to the longest an int64 has,
// then its sum. Padding with a byte below every digit and '-' makes
// bytes.Compare on the text field the order encoding/json gives object keys
// ("-1" < "10" < "2", a prefix before its extensions).
const (
	groupKeyBytes = len("-9223372036854775808")
	groupRecBytes = groupKeyBytes + 8
	// groupOutBytes bounds one encoded "key":sum, member.
	groupOutBytes = 2*groupKeyBytes + len(`"":,`)
)

// groupRecs sorts the records in place.
type groupRecs []byte

func (r groupRecs) Len() int { return len(r) / groupRecBytes }
func (r groupRecs) Less(i, j int) bool {
	return bytes.Compare(r[i*groupRecBytes:i*groupRecBytes+groupKeyBytes], r[j*groupRecBytes:j*groupRecBytes+groupKeyBytes]) < 0
}
func (r groupRecs) Swap(i, j int) {
	var tmp [groupRecBytes]byte
	a, b := r[i*groupRecBytes:(i+1)*groupRecBytes], r[j*groupRecBytes:(j+1)*groupRecBytes]
	copy(tmp[:], a)
	copy(a, b)
	copy(b, tmp[:])
}

// appendGroups appends the members of the groups object, sorted by key text,
// using no memory but dst's own, which the caller pools. It reserves the most
// the members can take and lays the records down at the far end of that; once
// sorted they are encoded from the near end. After i members the encoding has
// used at most i*groupOutBytes and record i starts (n-i)*groupRecBytes before
// the reservation's end, which is never less — so a record is overwritten
// only after it has been read.
func appendGroups(dst []byte, groups map[int64]int64) []byte {
	start := len(dst)
	need := len(groups) * groupOutBytes
	dst = slices.Grow(dst, need)[:start+need]
	recs := dst[start+need-len(groups)*groupRecBytes:]
	rec := recs
	for k, v := range groups {
		n := len(strconv.AppendInt(rec[:0], k, 10))
		clear(rec[n:groupKeyBytes]) // the buffer is reused: the padding is written, not assumed
		binary.LittleEndian.PutUint64(rec[groupKeyBytes:], uint64(v))
		rec = rec[groupRecBytes:]
	}
	sort.Sort(groupRecs(recs))

	out := dst[:start]
	for rec = recs; len(rec) > 0; rec = rec[groupRecBytes:] {
		var key [groupKeyBytes]byte
		n := copy(key[:], rec)
		if i := bytes.IndexByte(key[:], 0); i >= 0 {
			n = i
		}
		sum := int64(binary.LittleEndian.Uint64(rec[groupKeyBytes:]))
		out = append(out, '"')
		out = append(out, key[:n]...)
		out = append(out, '"', ':')
		out = strconv.AppendInt(out, sum, 10)
		out = append(out, ',')
	}
	return out[:len(out)-1] // the last member takes no comma
}
