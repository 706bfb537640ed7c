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
//
// Any other spec is walked once, at the cursor, by the walk scanApp runs on
// a whole body: it records the spec, and when the spec's object closes,
// exactly its span is copied once and the app built from the record
// (buildAt); the item carries the app and the copy, for ItemApp to count
// and admit. The walk accepts only what skipValue would, with the same
// span. Only where it declines does the cursor go back for skipValue
// (rawObject), and the item is marked, so ItemApp runs the reference
// decoder without walking again. A nil table only skips each spec.

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
	// built is the app a table's scanner built from App where it walked it,
	// and text the one copy of App that app's strings are cut from;
	// declined reports that the walk declined App instead.
	built    *dag.App
	text     string
	declined bool
}

// ScanDeploy reads a POST /v1/deploy envelope held in buf. The tenant is
// copied out (it outlives the request as a label and in fleet.Request); the
// app spec is a span of buf, which the scanner has built into an app where
// the table holds none for it, or found held, or checked only to be one
// well-formed JSON object; resolve the item with ItemApp. A nil table scans
// without one, skipping the spec.
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
// at the cursor is taken whole, unwalked; any other spec is walked once,
// and built where the walk accepts (buildAt). Where it declines, the spec
// is only skipped, and the item marked so that ItemApp goes straight to the
// reference decoder.
func (s *scanner) app(item *DeployItem) (ok bool) {
	if s.in == nil {
		item.App, ok = s.rawObject()
		return ok
	}
	s.skipSpace()
	start := s.pos
	item.probe = s.in.probe(s.buf, start)
	if e := item.probe.entry; e != nil && e.canonical {
		s.pos += len(e.body)
		item.App = s.buf[start:s.pos]
		return true
	} else if e == nil {
		if item.built, item.text, s.pos, ok = buildAt(s.buf, start); ok {
			item.App = s.buf[start:s.pos]
			return true
		}
		s.pos, item.declined = start, true
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

// scanApp decodes a canonical app spec straight into a validated *dag.App:
// the walk records the spec (walk), one copy of body becomes the text every
// string is cut from, and the record feeds the dag.Builder AppSpec.App
// builds with (build), whose App comes out at its final size with its
// ordering walk and digest. So a decode allocates the app's storage and
// image maps, and nothing per name. The copy is returned as text: the app
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
	end, ok := ab.walk(body, 0)
	if !ok || spaceEnd(body, end) != len(body) {
		return nil, "", false
	}
	text := string(body)
	app, ok := ab.build(text)
	if !ok {
		return nil, "", false
	}
	return app, text, true
}

// buildAt is scanApp for the spec that starts at buf[start], the cursor of
// an envelope scanner: the same walk, which stops where the spec's object
// closes, then one copy of exactly buf[start:end] as the text. It returns
// the app, its text and end.
func buildAt(buf []byte, start int) (app *dag.App, text string, end int, ok bool) {
	ab := appBuilds.Get().(*appBuild)
	defer appBuilds.Put(ab)
	defer ab.reset()
	if end, ok = ab.walk(buf, start); !ok {
		return nil, "", 0, false
	}
	text = string(buf[start:end])
	if app, ok = ab.build(text); !ok {
		return nil, "", 0, false
	}
	return app, text, end, true
}

// span is where a string lies in the walked spec, quotes excluded, as
// offsets from the walk's base; the zero span is the empty string.
type span struct{ from, to int }

// specRecord is an app spec as the walk reads it, before a string of it
// exists: names and image references as spans, integers parsed, the CPU
// load as the span of its number (parsed by build, from the text).
type specRecord struct {
	version int64
	name    span
	ms      []msRecord
	images  []imageRecord // every vertex's images, concatenated
	edges   []edgeRecord
}

type msRecord struct {
	name                                 span
	imageSize, memory, storage, extInput int64
	cores                                int
	cpu                                  span
	// arches and images are the vertex's runs of appBuild.arches and
	// specRecord.images.
	arches, images [2]int32
}

type imageRecord struct{ registry, ref span }

type edgeRecord struct {
	from, to span
	size     int64
}

// reset zeroes what the last walk recorded; past len every slot is zero
// already.
func (r *specRecord) reset() {
	clear(r.ms)
	clear(r.images)
	clear(r.edges)
	*r = specRecord{ms: r.ms[:0], images: r.images[:0], edges: r.edges[:0]}
}

// walk reads the app spec that starts at buf[base] (after whitespace) into
// ab.rec and returns the index just past its closing brace. Members may
// come in any order — "dataflows" before "microservices" included — since
// nothing is built until the object has closed.
func (ab *appBuild) walk(buf []byte, base int) (end int, ok bool) {
	s := appScanner{scanner: scanner{buf: buf, pos: base}, base: base, ab: ab}
	r := &ab.rec
	var seen fieldSet
	ok = s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "version":
			r.version, ok = s.integer()
			return ok && seen.first(specVersion)
		case "name":
			r.name, ok = s.span()
			return ok && seen.first(specName)
		case "microservices":
			return seen.first(specMicroservices) && s.array(s.microservice)
		case "dataflows":
			return seen.first(specDataflows) && s.array(s.dataflow)
		}
		return false
	})
	return s.pos, ok
}

// build feeds ab.rec to the builder, cutting every string from text, the
// walked spec's bytes from its base on, and returns the validated app.
func (ab *appBuild) build(text string) (*dag.App, bool) {
	r := &ab.rec
	if r.version < 1 || r.version > AppSpecVersion || r.name.to == r.name.from {
		return nil, false
	}
	cut := func(sp span) string { return text[sp.from:sp.to] }
	b := &ab.b
	b.Name = cut(r.name)
	for i := range r.ms {
		m := &r.ms[i]
		var cpu float64
		if m.cpu.to > m.cpu.from {
			// The call encoding/json makes, on the same span.
			v, err := strconv.ParseFloat(cut(m.cpu), 64)
			if err != nil {
				return nil, false
			}
			cpu = v
		}
		var images map[string]string
		if imgs := r.images[m.images[0]:m.images[1]]; len(imgs) > 0 {
			images = make(map[string]string, len(imgs))
			for _, img := range imgs {
				images[cut(img.registry)] = cut(img.ref)
			}
			if len(images) != len(imgs) {
				return nil, false // a registry named twice
			}
		}
		// The scratch's arch list is never nil, so neither are the vertex's
		// Arches: AppSpec.App leaves a vertex without arches an empty slice.
		err := b.Microservice(dag.Microservice{
			Name:      cut(m.name),
			ImageSize: units.Bytes(m.imageSize),
			Images:    images,
			Req: dag.Requirements{
				Cores:   m.cores,
				CPU:     units.MI(cpu),
				Memory:  units.Bytes(m.memory),
				Storage: units.Bytes(m.storage),
			},
			Arches:        ab.arches[m.arches[0]:m.arches[1]:m.arches[1]],
			ExternalInput: units.Bytes(m.extInput),
		})
		if err != nil {
			return nil, false
		}
	}
	for _, e := range r.edges {
		if b.Dataflow(cut(e.from), cut(e.to), units.Bytes(e.size)) != nil {
			return nil, false
		}
	}
	app, err := b.App()
	return app, err == nil
}

// appScanner is a scanner that records an app spec into its scratch, every
// string as a span from base.
type appScanner struct {
	scanner
	base int
	ab   *appBuild
}

// spanOf returns the span of b, a subslice of buf. Subslices of buf keep
// its capacity end, so the capacities give b's offset.
func (s *appScanner) spanOf(b []byte) span {
	from := cap(s.buf) - cap(b) - s.base
	return span{from, from + len(b)}
}

func (s *appScanner) span() (span, bool) {
	b, ok := s.str()
	if !ok {
		return span{}, false
	}
	return s.spanOf(b), true
}

func (s *appScanner) microservice() bool {
	ab, r := s.ab, &s.ab.rec
	m := msRecord{arches: [2]int32{int32(len(ab.arches))}, images: [2]int32{int32(len(r.images))}}
	var seen fieldSet
	ok := s.object(func(key []byte) (ok bool) {
		var f fieldSet
		switch string(key) {
		case "name":
			f = msName
			m.name, ok = s.span()
		case "image_size_bytes":
			f = msImageSize
			m.imageSize, ok = s.integer()
		case "images":
			f = msImages
			ok = s.object(func(registry []byte) bool {
				ref, ok := s.span()
				r.images = append(r.images, imageRecord{s.spanOf(registry), ref})
				return ok
			})
		case "cores":
			f = msCores
			var n int64
			n, ok = s.integer()
			m.cores = int(n)
			ok = ok && int64(m.cores) == n
		case "cpu_mi":
			f = msCPU
			var b []byte
			if b, _ = s.number(); b != nil {
				m.cpu, ok = s.spanOf(b), true
			}
		case "memory_bytes":
			f = msMemory
			m.memory, ok = s.integer()
		case "storage_bytes":
			f = msStorage
			m.storage, ok = s.integer()
		case "arches":
			f = msArches
			ok = s.array(func() bool {
				arch, _ := s.str()
				switch string(arch) {
				case string(dag.AMD64):
					ab.arches = append(ab.arches, dag.AMD64)
				case string(dag.ARM64):
					ab.arches = append(ab.arches, dag.ARM64)
				default:
					return false
				}
				return true
			})
		case "external_input_bytes":
			f = msExternalInput
			m.extInput, ok = s.integer()
		}
		return ok && seen.first(f)
	})
	m.arches[1], m.images[1] = int32(len(ab.arches)), int32(len(r.images))
	r.ms = append(r.ms, m)
	return ok
}

func (s *appScanner) dataflow() bool {
	var e edgeRecord
	var seen fieldSet
	ok := s.object(func(key []byte) (ok bool) {
		var f fieldSet
		switch string(key) {
		case "from":
			f = dfFrom
			e.from, ok = s.span()
		case "to":
			f = dfTo
			e.to, ok = s.span()
		case "size_bytes":
			f = dfSize
			e.size, ok = s.integer()
		}
		return ok && seen.first(f)
	})
	s.ab.rec.edges = append(s.ab.rec.edges, e)
	return ok
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
