package v1

import (
	"bytes"
	"encoding/json"
	"math"
	"sync/atomic"
)

// DecodeStrict is the wire's reference decode: encoding/json into dst with
// unknown fields refused. The accepted language of every v1 request body is
// what this function accepts.
func DecodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// plainQuery is QueryRequest without its methods, so DecodeStrict decodes it
// field by field instead of calling back into UnmarshalJSON.
type plainQuery QueryRequest

// fastDecodes counts bodies the single-pass decoder took; tests read it to
// pin which bodies stay off the encoding/json fallback.
var fastDecodes atomic.Int64

// UnmarshalJSON decodes a query body strictly (unknown fields are refused,
// whatever the calling decoder's own setting). Megabyte inline columns make
// this the frontend's hot path, so the canonical encoding — the one
// json.Marshal emits: exact-case known keys, each at most once, plain integer
// literals, ASCII strings without escapes — is decoded in one pass that sizes
// every column before filling it. Any other input, valid or not, goes to
// DecodeStrict untouched: the accepted language and every error are
// encoding/json's, and the fast path only has to be right where it accepts.
// Nothing in q aliases data afterwards.
func (q *QueryRequest) UnmarshalJSON(data []byte) error {
	// encoding/json merges into a non-zero destination; only the fallback
	// reproduces that.
	if *q == (QueryRequest{}) {
		if fast, ok := decodeQuery(data); ok {
			fastDecodes.Add(1)
			*q = fast
			return nil
		}
	}
	return DecodeStrict(data, (*plainQuery)(q))
}

// decodeQuery is the single-pass decoder; ok is false for anything outside
// the canonical encoding.
func decodeQuery(data []byte) (q QueryRequest, ok bool) {
	c := cursor{b: data}
	var seen uint
	ok = c.object(func(key []byte) bool {
		switch string(key) {
		case "op":
			return once(&seen, 0) && c.str(&q.Op)
		case "priority":
			return once(&seen, 1) && c.str(&q.Priority)
		case "trace_id":
			return once(&seen, 2) && c.str(&q.TraceID)
		case "table":
			return once(&seen, 3) && c.str(&q.Table)
		case "engine":
			return once(&seen, 4) && c.str(&q.Engine)
		case "scan":
			q.Scan = new(ScanArgs)
			return once(&seen, 5) && c.scanArgs(q.Scan)
		case "join":
			q.Join = new(JoinArgs)
			return once(&seen, 6) && c.joinArgs(q.Join)
		case "group_sum":
			q.GroupSum = new(GroupSumArgs)
			return once(&seen, 7) && c.groupSumArgs(q.GroupSum)
		}
		return false
	})
	c.space()
	return q, ok && c.i == len(c.b)
}

// once reports whether bit is not yet in seen, and sets it: a duplicate key
// is outside the canonical encoding (encoding/json keeps the last one and
// merges nested objects).
func once(seen *uint, bit uint) bool {
	if *seen&(1<<bit) != 0 {
		return false
	}
	*seen |= 1 << bit
	return true
}

func (c *cursor) scanArgs(a *ScanArgs) bool {
	var seen uint
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "filter_col":
			return once(&seen, 0) && c.intField(&a.FilterCol)
		case "lo":
			return once(&seen, 1) && c.int64(&a.Lo)
		case "hi":
			return once(&seen, 2) && c.int64(&a.Hi)
		case "agg_col":
			return once(&seen, 3) && c.intField(&a.AggCol)
		}
		return false
	})
}

func (c *cursor) joinArgs(a *JoinArgs) bool {
	var seen uint
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "build_keys":
			return once(&seen, 0) && c.column(&a.BuildKeys)
		case "build_vals":
			return once(&seen, 1) && c.column(&a.BuildVals)
		case "probe_keys":
			return once(&seen, 2) && c.column(&a.ProbeKeys)
		case "probe_vals":
			return once(&seen, 3) && c.column(&a.ProbeVals)
		case "algorithm":
			return once(&seen, 4) && c.str(&a.Algorithm)
		}
		return false
	})
}

func (c *cursor) groupSumArgs(a *GroupSumArgs) bool {
	var seen uint
	return c.object(func(key []byte) bool {
		switch string(key) {
		case "keys":
			return once(&seen, 0) && c.column(&a.Keys)
		case "vals":
			return once(&seen, 1) && c.column(&a.Vals)
		case "strategy":
			return once(&seen, 2) && c.str(&a.Strategy)
		}
		return false
	})
}

// cursor walks a JSON text. Every method reports false, leaving the position
// undefined, on the first byte it does not recognise.
type cursor struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (c *cursor) space() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat consumes ch, after any whitespace, if it is next.
func (c *cursor) eat(ch byte) bool {
	c.space()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// object walks {"key":value,...}, calling field with each key's bytes to
// consume the value.
func (c *cursor) object(field func(key []byte) bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	for {
		key, ok := c.rawString()
		if !ok || !c.eat(':') || !field(key) {
			return false
		}
		if !c.eat(',') {
			return c.eat('}')
		}
	}
}

// rawString consumes a string literal of printable ASCII without escapes and
// returns its contents, still part of the input. Escapes, control bytes
// (invalid JSON) and non-ASCII bytes (encoding/json replaces invalid UTF-8)
// are left to the fallback.
func (c *cursor) rawString() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	start := c.i
	for ; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start : c.i-1], true
		case ch == '\\' || ch < ' ' || ch >= 0x7f:
			return nil, false
		}
	}
	return nil, false
}

// str decodes a string value into a copy.
func (c *cursor) str(dst *string) bool {
	raw, ok := c.rawString()
	*dst = string(raw)
	return ok
}

// int64 decodes -?(0|[1-9][0-9]*) within int64's range. A fraction or an
// exponent is not consumed, so the caller's next eat fails on it.
func (c *cursor) int64(dst *int64) bool {
	c.space()
	b, i := c.b, c.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	c.i = i
	// 19 digits cannot wrap a uint64; more, or a leading zero, is not ours.
	digits := i - start
	if digits == 0 || digits > 19 || (digits > 1 && b[start] == '0') {
		return false
	}
	if neg {
		*dst = -int64(n)
		return n <= -math.MinInt64
	}
	*dst = int64(n)
	return n <= math.MaxInt64
}

// intField decodes an integer that must also fit the platform's int.
func (c *cursor) intField(dst *int) bool {
	var n int64
	ok := c.int64(&n)
	*dst = int(n)
	return ok && int64(*dst) == n
}

var comma = []byte{','}

// column decodes an array of integers into one exactly-sized slice: the
// commas up to the closing bracket give the length before any digit is read,
// so nothing grows. An element is at least one byte, so the slice is at most
// four times the array's text.
func (c *cursor) column(dst *[]int64) bool {
	if !c.eat('[') {
		return false
	}
	if c.eat(']') {
		*dst = []int64{} // as encoding/json: empty, not nil
		return true
	}
	end := bytes.IndexByte(c.b[c.i:], ']')
	if end < 0 {
		return false
	}
	n := bytes.Count(c.b[c.i:c.i+end], comma) + 1
	if 2*n-1 > end {
		return false
	}
	out := make([]int64, n)
	for k := range out {
		if k > 0 && !c.eat(',') {
			return false
		}
		if !c.int64(&out[k]) {
			return false
		}
	}
	*dst = out
	return c.eat(']')
}
