package wire

import (
	"strconv"
	"unicode/utf8"

	"deep/internal/dag"
	"deep/internal/units"
)

// This file is the accept path of the serving front door: hand-written
// single-pass scanners for the two deploy envelopes and the app spec. They
// only ever accept. Each recognises the canonical subset of its format —
// what json.Marshal, or any encoder like it, writes:
//
//   - objects whose keys are the format's own, spelled exactly, each at most
//     once, in any order, with JSON whitespace anywhere it is allowed;
//   - no null, true or false anywhere;
//   - strings without backslash escapes, holding valid UTF-8;
//   - integer fields as -?digits that fit the field, float fields as any JSON
//     number strconv.ParseFloat takes (the call encoding/json itself makes);
//   - nothing but whitespace after the value.
//
// On anything else — a key in another case, a duplicate, an escape, 1e3 for
// an integer, trailing bytes, and every semantic error the dag package
// raises — a scanner declines (ok == false) without saying why, and the
// caller runs the reference decoder (DecodeStrict, DecodeAppSpec,
// AppSpec.App) on the same bytes. The reference decoder therefore decides
// every rejection and words every error; a scanner accepting means the
// reference decoder would have accepted with the same result, which
// FuzzScanMatchesReference checks. A body outside the subset that the
// reference decoder accepts is still served, at the reference decoder's cost.
//
// The envelope scanners of a spec table (Interner.ScanDeploy,
// Interner.ScanDeployBatch) ask the table, at each "app" value, whether a
// stored spec starts at the cursor. A stored body that scanApp accepted and
// that is there byte for byte stands in for the walk: the cursor jumps past
// it, and the item carries the entry. Such a body is one skipValue accepts
// (it nests 4 deep, under the same string and number rules), so the jump
// gives the walk's decision and span; FuzzProbeMatchesWalk checks that.

// DeployItem is one deployment as the envelope scanners read it: the fields
// of fleetd.DeployRequest and fleetd.DeployBatchItem.
type DeployItem struct {
	Seed       int64
	DeadlineMS int64
	// App is the app spec exactly as json.RawMessage captures it, first
	// byte of the value to last. From a scanner it aliases the scanned
	// buffer; nil when the envelope has no "app".
	App []byte

	probe internProbe // what a table's scanner found at App; see ItemApp
}

// ScanDeploy reads a POST /v1/deploy envelope held in buf. The tenant is
// copied out (it outlives the request as a label and in fleet.Request); the
// app spec is a span of buf, not decoded — it has only been checked to be
// one well-formed JSON object, unless the table holds it where it starts;
// resolve the item with ItemApp. A nil table scans without one.
func (in *Interner) ScanDeploy(buf []byte) (tenant string, item DeployItem, ok bool) {
	s := scanner{buf: buf, in: in}
	var name []byte
	var seen fieldSet
	ok = s.object(func(key []byte) bool {
		if string(key) == "tenant" {
			var ok bool
			name, ok = s.str()
			return ok && seen.first(envTenant)
		}
		return s.itemField(key, &item, &seen)
	}) && s.end()
	if !ok {
		return "", DeployItem{}, false
	}
	return string(name), item, true
}

// ScanDeployBatch reads a POST /v1/deploy:batch envelope held in buf,
// appending its items to items, as ScanDeploy reads one item. It declines a
// batch of more than maxItems, so a pooled items slice stays bounded.
func (in *Interner) ScanDeployBatch(buf []byte, items []DeployItem, maxItems int) (tenant string, _ []DeployItem, ok bool) {
	s := scanner{buf: buf, in: in}
	var name []byte
	var seen fieldSet
	ok = s.object(func(key []byte) bool {
		switch string(key) {
		case "tenant":
			var ok bool
			name, ok = s.str()
			return ok && seen.first(envTenant)
		case "items":
			return seen.first(envItems) && s.array(func() bool {
				var item DeployItem
				var itemSeen fieldSet
				if len(items) == maxItems || !s.object(func(key []byte) bool {
					return s.itemField(key, &item, &itemSeen)
				}) {
					return false
				}
				items = append(items, item)
				return true
			})
		}
		return false
	}) && s.end()
	if !ok {
		return "", nil, false
	}
	return string(name), items, true
}

// itemField reads the value of one of the three per-deployment keys.
func (s *scanner) itemField(key []byte, item *DeployItem, seen *fieldSet) (ok bool) {
	var f fieldSet
	switch string(key) {
	case "seed":
		f = itemSeed
		item.Seed, ok = s.integer()
	case "deadline_ms":
		f = itemDeadline
		item.DeadlineMS, ok = s.integer()
	case "app":
		f = itemApp
		ok = s.app(item)
	}
	return ok && seen.first(f)
}

// app reads an "app" value into item. With a table, a stored canonical spec
// at the cursor is taken whole, unwalked.
func (s *scanner) app(item *DeployItem) (ok bool) {
	if s.in != nil {
		s.skipSpace()
		item.probe = s.in.probe(s.buf, s.pos)
		if e := item.probe.entry; e != nil && e.canonical {
			start := s.pos
			s.pos += len(e.body)
			item.App = s.buf[start:s.pos]
			return true
		}
	}
	item.App, ok = s.rawObject()
	return ok
}

// fieldSet records which keys of one object have been read; a key seen
// twice is a decline (encoding/json would let the last one win).
type fieldSet uint16

// first marks f read and reports whether this was its first sighting.
func (fs *fieldSet) first(f fieldSet) bool {
	dup := *fs&f != 0
	*fs |= f
	return !dup
}

// One bit per key, numbered within the object the key belongs to.
const (
	envTenant fieldSet = 1 << iota
	envItems
	itemSeed
	itemDeadline
	itemApp
)

const (
	specVersion fieldSet = 1 << iota
	specName
	specMicroservices
	specDataflows
)

const (
	msName fieldSet = 1 << iota
	msImageSize
	msImages
	msCores
	msCPU
	msMemory
	msStorage
	msArches
	msExternalInput
)

const (
	dfFrom fieldSet = 1 << iota
	dfTo
	dfSize
)

// scanApp decodes a canonical app spec straight into a validated *dag.App,
// through the dag.Builder AppSpec.App builds with: each dataflow endpoint is
// resolved once, as the edge is read, and the app comes out at its final
// size with its ordering walk and digest. Every string in the app is a
// substring of one copy of body, so a decode allocates the app's storage and
// image maps, and nothing per name. That copy is returned as text: the app
// already holds it, so a spec table that keeps text as the body keeps the
// bytes once.
func scanApp(body []byte) (app *dag.App, text string, ok bool) {
	ab := appBuilds.Get().(*appBuild)
	defer appBuilds.Put(ab)
	return ab.scan(body)
}

// scan is scanApp on the given scratch, which it leaves empty.
func (ab *appBuild) scan(body []byte) (*dag.App, string, bool) {
	defer ab.reset()
	s := appScanner{scanner: scanner{buf: body}, text: string(body), ab: ab}
	b := &ab.b
	var version int64
	var seen fieldSet
	// "dataflows" may precede "microservices" (an encoder that sorts keys
	// writes them so); the builder needs the vertices first, so such an
	// array is skipped and read once the object is done.
	dataflowsAt := -1
	ok := s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "version":
			version, ok = s.integer()
			return ok && seen.first(specVersion)
		case "name":
			b.Name, ok = s.string()
			return ok && seen.first(specName)
		case "microservices":
			return seen.first(specMicroservices) && s.array(s.microservice)
		case "dataflows":
			if !seen.first(specDataflows) {
				return false
			}
			if seen&specMicroservices != 0 {
				return s.dataflows()
			}
			s.skipSpace()
			dataflowsAt = s.pos
			return s.skipValue()
		}
		return false
	}) && s.end()
	if ok && dataflowsAt >= 0 {
		s.pos = dataflowsAt
		ok = s.dataflows()
	}
	if !ok || version < 1 || version > AppSpecVersion || b.Name == "" {
		return nil, "", false
	}
	app, err := b.App()
	if err != nil {
		return nil, "", false
	}
	return app, s.text, true
}

// appScanner is a scanner that also holds its buffer as one string, which
// the app's strings are cut from, and the scratch it builds the app in.
type appScanner struct {
	scanner
	text string
	ab   *appBuild
}

// cut returns span, a subslice of buf, as a substring of text. Subslices of
// buf keep its capacity end, so the capacities give span's offset.
func (s *appScanner) cut(span []byte) string {
	start := cap(s.buf) - cap(span)
	return s.text[start : start+len(span)]
}

func (s *appScanner) string() (string, bool) {
	span, ok := s.str()
	if !ok {
		return "", false
	}
	return s.cut(span), true
}

func (s *appScanner) bytes() (units.Bytes, bool) {
	n, ok := s.integer()
	return units.Bytes(n), ok
}

func (s *appScanner) microservice() bool {
	// The scratch's arch list is never nil, so neither are the vertex's
	// Arches: AppSpec.App leaves a vertex without arches an empty slice.
	m := dag.Microservice{Arches: s.ab.arches[:0]}
	var seen fieldSet
	ok := s.object(func(key []byte) (ok bool) {
		var f fieldSet
		switch string(key) {
		case "name":
			f = msName
			m.Name, ok = s.string()
		case "image_size_bytes":
			f = msImageSize
			m.ImageSize, ok = s.bytes()
		case "images":
			f = msImages
			ok = s.object(func(registry []byte) bool {
				ref, ok := s.string()
				if _, dup := m.Images[string(registry)]; !ok || dup {
					return false
				}
				if m.Images == nil {
					m.Images = make(map[string]string)
				}
				m.Images[s.cut(registry)] = ref
				return true
			})
		case "cores":
			f = msCores
			var n int64
			n, ok = s.integer()
			m.Req.Cores = int(n)
			ok = ok && int64(m.Req.Cores) == n
		case "cpu_mi":
			f = msCPU
			if span, _ := s.number(); span != nil {
				// The call encoding/json makes, on the same span.
				v, err := strconv.ParseFloat(s.cut(span), 64)
				m.Req.CPU, ok = units.MI(v), err == nil
			}
		case "memory_bytes":
			f = msMemory
			m.Req.Memory, ok = s.bytes()
		case "storage_bytes":
			f = msStorage
			m.Req.Storage, ok = s.bytes()
		case "arches":
			f = msArches
			ok = s.array(func() bool {
				arch, _ := s.str()
				switch string(arch) {
				case string(dag.AMD64):
					m.Arches = append(m.Arches, dag.AMD64)
				case string(dag.ARM64):
					m.Arches = append(m.Arches, dag.ARM64)
				default:
					return false
				}
				return true
			})
		case "external_input_bytes":
			f = msExternalInput
			m.ExternalInput, ok = s.bytes()
		}
		return ok && seen.first(f)
	})
	s.ab.arches = m.Arches[:0] // keep the list if it grew
	return ok && s.ab.b.Microservice(m) == nil
}

func (s *appScanner) dataflows() bool {
	return s.array(func() bool {
		var from, to string
		var size units.Bytes
		var seen fieldSet
		return s.object(func(key []byte) (ok bool) {
			var f fieldSet
			switch string(key) {
			case "from":
				f = dfFrom
				from, ok = s.string()
			case "to":
				f = dfTo
				to, ok = s.string()
			case "size_bytes":
				f = dfSize
				size, ok = s.bytes()
			}
			return ok && seen.first(f)
		}) && s.ab.b.Dataflow(from, to, size) == nil
	})
}

// scanner is a cursor over one JSON document held in memory. Every method
// skips leading whitespace, consumes what it names, and reports false —
// leaving the cursor anywhere — when the input is not in the canonical
// subset.
type scanner struct {
	buf []byte
	pos int
	in  *Interner // the envelope scanners' spec table, if any
}

func (s *scanner) skipSpace() { s.pos = spaceEnd(s.buf, s.pos) }

// byte consumes c if it is the next non-space byte.
func (s *scanner) byte(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.pos == len(s.buf)
}

// object reads {"key":value,...}, calling member with each key to read its
// value; key aliases buf.
func (s *scanner) object(member func(key []byte) bool) bool {
	return s.list('{', '}', func() bool {
		key, ok := s.str()
		return ok && s.byte(':') && member(key)
	})
}

// array reads [element,...], calling element to read each.
func (s *scanner) array(element func() bool) bool { return s.list('[', ']', element) }

func (s *scanner) list(open, close byte, element func() bool) bool {
	if !s.byte(open) {
		return false
	}
	if s.byte(close) {
		return true
	}
	for {
		if !element() {
			return false
		}
		if !s.byte(',') {
			return s.byte(close)
		}
	}
}

// str reads a string and returns the bytes between its quotes: no escapes,
// no control characters, valid UTF-8.
func (s *scanner) str() ([]byte, bool) {
	s.skipSpace()
	if s.pos == len(s.buf) || s.buf[s.pos] != '"' {
		return nil, false
	}
	end := skipString(s.buf, s.pos)
	if end < 0 {
		return nil, false
	}
	span := s.buf[s.pos+1 : end]
	s.pos = end + 1
	return span, true
}

// integer reads -?(0|[1-9][0-9]*) that fits an int64.
func (s *scanner) integer() (int64, bool) {
	span, plain := s.number()
	if !plain {
		return 0, false
	}
	neg := span[0] == '-'
	if neg {
		span = span[1:]
	}
	if len(span) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range span {
		n = n*10 + uint64(c-'0')
	}
	switch {
	case neg && n <= 1<<63:
		return -int64(n), true
	case !neg && n < 1<<63:
		return int64(n), true
	}
	return 0, false
}

// number reads one JSON number and returns its span (nil if there is none);
// plain reports that it had neither fraction nor exponent.
func (s *scanner) number() (span []byte, plain bool) {
	s.skipSpace()
	end, plain := numberEnd(s.buf, s.pos)
	if end < 0 {
		return nil, false
	}
	span = s.buf[s.pos:end]
	s.pos = end
	return span, plain
}

// numberEnd returns the index just past the JSON number that starts at
// buf[i], or -1 if none does; plain reports that it had neither fraction nor
// exponent.
func numberEnd(buf []byte, i int) (end int, plain bool) {
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	first := i
	i = digitsEnd(buf, i)
	if i == first || (buf[first] == '0' && i > first+1) {
		return -1, false
	}
	plain = true
	if i < len(buf) && buf[i] == '.' {
		plain, first = false, i+1
		if i = digitsEnd(buf, first); i == first {
			return -1, false
		}
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		plain, first = false, i
		if i = digitsEnd(buf, first); i == first {
			return -1, false
		}
	}
	return i, plain
}

// digitsEnd returns the index just past the run of digits starting at buf[i].
func digitsEnd(buf []byte, i int) int {
	for i < len(buf) && buf[i]-'0' <= 9 {
		i++
	}
	return i
}

// maxSkipDepth bounds the nesting skipValue follows. An app spec nests four
// deep (spec, microservices, one microservice, its images).
const maxSkipDepth = 16

// rawObject skips one object of any shape and returns its span.
func (s *scanner) rawObject() ([]byte, bool) {
	s.skipSpace()
	start := s.pos
	if start == len(s.buf) || s.buf[start] != '{' || !s.skipValue() {
		return nil, false
	}
	return s.buf[start:s.pos], true
}

// skipValue consumes one well-formed value of any shape without reading it:
// objects, arrays, strings and numbers, under the same rules as everywhere
// else, so a skipped span is one encoding/json would also take as a single
// value. It walks every deploy's spec that the table does not recognise at
// the cursor, hence one loop with the cursor in a register and a bit stack
// of open containers (1 = object) rather than a descent through object and
// array.
func (s *scanner) skipValue() bool {
	buf, i := s.buf, s.pos
	var open uint32
	depth, inObject := 0, false
	for {
		// One member or element: its key if it has one, then its value.
		if inObject {
			if i = spaceEnd(buf, i); i == len(buf) || buf[i] != '"' {
				return false
			}
			if i = skipString(buf, i); i < 0 {
				return false
			}
			if i = spaceEnd(buf, i+1); i == len(buf) || buf[i] != ':' {
				return false
			}
			i++
		}
		if i = spaceEnd(buf, i); i == len(buf) {
			return false
		}
		switch c := buf[i]; c {
		case '"':
			if i = skipString(buf, i); i < 0 {
				return false
			}
			i++
		case '{', '[':
			if depth == maxSkipDepth {
				return false
			}
			depth, open, inObject = depth+1, open<<1, c == '{'
			if inObject {
				open |= 1
			}
			if i = spaceEnd(buf, i+1); i == len(buf) || buf[i] != c+2 { // '{'+2 == '}', '['+2 == ']'
				continue // into its first member or element
			}
			i++
			depth, open = depth-1, open>>1
		default:
			if i, _ = numberEnd(buf, i); i < 0 {
				return false
			}
		}
		// After a value: close every container it ends, then a comma leads
		// to the next member or element of the innermost one still open.
		for {
			if depth == 0 {
				s.pos = i
				return true
			}
			inObject = open&1 == 1
			if i = spaceEnd(buf, i); i == len(buf) {
				return false
			}
			c := buf[i]
			i++
			if c == ',' {
				break
			}
			if (c != '}' || !inObject) && (c != ']' || inObject) {
				return false
			}
			depth, open = depth-1, open>>1
		}
	}
}

// spaceEnd returns the index of the first non-space byte at or after buf[i].
func spaceEnd(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	return i
}

// plainStringByte marks the bytes a canonical string may hold without a
// closer look: everything but the quote, the backslash, control characters,
// and the bytes of multi-byte UTF-8.
var plainStringByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipString returns the index of the quote closing the string that opens
// at buf[i], or -1 when the string is not in the canonical subset (see str).
func skipString(buf []byte, i int) int {
	start := i + 1
	multibyte := false
	for i = start; i < len(buf); i++ {
		c := buf[i]
		if plainStringByte[c] {
			continue
		}
		switch {
		case c == '"':
			if multibyte && !utf8.Valid(buf[start:i]) {
				return -1
			}
			return i
		case c >= utf8.RuneSelf:
			multibyte = true
		default:
			return -1
		}
	}
	return -1
}
