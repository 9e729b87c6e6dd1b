package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"ios"
	"ios/internal/graph"
	"ios/internal/models"
	"ios/internal/serve"
)

// request is one generated /optimize body and the zoo architecture it
// asks about.
type request struct {
	arch string // canonical zoo name
	body []byte
}

// generator makes a serve workload's requests from a seeded source.
type generator interface {
	// novel reports whether requests submit graphs (novel_graphs) rather
	// than name zoo models (warm_serve).
	novel() bool
	next(rng *rand.Rand) request
	// replayBody is the body the traced replay uses for r: the same body
	// for zoo names, a fresh renamed copy for graphs (the original is in
	// the schedule cache by then).
	replayBody(r request) []byte
	// warm readies a fresh server: the state the timed phase starts from.
	warm(ctx context.Context, e *serveEnv, want map[string]float64) error
}

// paperModels are the four paper benchmarks Server.Warm precomputes.
var paperModels = []string{"inception", "randwire", "nasnet", "squeezenet"}

// warmGen asks for the paper benchmarks by any of their accepted
// spellings.
type warmGen struct {
	spellings [][]request // per model: one request per spelling
}

func newWarmGen() (*warmGen, error) {
	g := &warmGen{}
	for _, name := range paperModels {
		e, ok := models.EntryByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown model %s", name)
		}
		var reqs []request
		for _, sp := range append([]string{e.Name, e.Display}, e.Aliases...) {
			body, err := json.Marshal(serve.OptimizeRequest{Model: sp})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{arch: e.Name, body: body})
		}
		g.spellings = append(g.spellings, reqs)
	}
	return g, nil
}

func (g *warmGen) novel() bool { return false }

func (g *warmGen) next(rng *rand.Rand) request {
	m := g.spellings[rng.Intn(len(g.spellings))]
	return m[rng.Intn(len(m))]
}

func (g *warmGen) replayBody(r request) []byte { return r.body }

// warm runs Server.Warm on the paper benchmarks, then asks for every
// spelling once so connections are open and every answer is checked.
func (g *warmGen) warm(ctx context.Context, e *serveEnv, want map[string]float64) error {
	if err := e.srv.Warm(ctx, paperModels, nil); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, m := range g.spellings {
		for _, r := range m {
			status, _, err := e.post(ctx, r.body, "", &buf)
			if err == nil {
				err = checkResponse(status, buf.Bytes(), r, false, want[r.arch])
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// novelArchs are the architectures whose graph JSON keeps the zoo
// builder's block partition; newNovelGen checks that they still do.
var novelArchs = []string{"inception", "squeezenet", "resnet34", "resnet50", "vgg16", "mobilenetv2", "shufflenet"}

// probeArchs are the architectures whose graph JSON loses the builder's
// block cuts (the known defect the probes show).
var probeArchs = []string{"nasnet", "randwire"}

// placeholder marks where a template's node-name prefix goes; every
// instance overwrites it with a unique prefix of the same length.
const placeholder = "~~~~~~~~~~~~"

// template is one architecture's {"graph": ...} body with placeholder
// name prefixes.
type template struct {
	arch string
	body []byte
	offs []int
	// cuts describes the partition before and after the JSON round trip.
	cuts string
}

// novelGen submits renamed copies of zoo graphs: every request carries
// node names no earlier request used, so the schedule cache misses while
// the block and measurement caches hit.
type novelGen struct {
	tmpls  []*template
	probes []*template
	salt   uint32
	n      atomic.Uint32
	order  []int // set-up submission order
}

func newNovelGen(seed int64) (*novelGen, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &novelGen{salt: rng.Uint32() & 0xffffff}
	for _, arch := range novelArchs {
		t, kept, err := newTemplate(arch)
		if err != nil {
			return nil, err
		}
		if !kept {
			return nil, fmt.Errorf("%s: graph JSON no longer keeps the builder's block partition (%s); drop it from the novel_graphs mix", arch, t.cuts)
		}
		g.tmpls = append(g.tmpls, t)
	}
	for _, arch := range probeArchs {
		t, _, err := newTemplate(arch)
		if err != nil {
			return nil, err
		}
		g.probes = append(g.probes, t)
	}
	g.order = rng.Perm(len(g.tmpls))
	return g, nil
}

// newTemplate renders arch's graph JSON with placeholder name prefixes
// and reports whether the round trip keeps the builder's partition.
func newTemplate(arch string) (*template, bool, error) {
	e, ok := models.EntryByName(arch)
	if !ok {
		return nil, false, fmt.Errorf("unknown model %s", arch)
	}
	zoo := e.Build(1)
	raw, err := zoo.MarshalJSON()
	if err != nil {
		return nil, false, err
	}
	var doc struct {
		Name  string           `json:"name"`
		Nodes []map[string]any `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, false, err
	}
	for _, n := range doc.Nodes {
		name, ok := n["name"].(string)
		if !ok {
			return nil, false, fmt.Errorf("%s: node without a name", arch)
		}
		n["name"] = placeholder + "." + name
		ins, _ := n["inputs"].([]any)
		for i, in := range ins {
			s, ok := in.(string)
			if !ok {
				return nil, false, fmt.Errorf("%s: node %s has a non-string input", arch, name)
			}
			ins[i] = placeholder + "." + s
		}
	}
	body, err := json.Marshal(map[string]any{"graph": doc})
	if err != nil {
		return nil, false, err
	}
	t := &template{arch: arch, body: body}
	for i := 0; ; {
		j := bytes.Index(body[i:], []byte(placeholder))
		if j < 0 {
			break
		}
		t.offs = append(t.offs, i+j)
		i += j + len(placeholder)
	}

	var req serve.OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, false, err
	}
	sub, err := graph.FromJSON(req.Graph)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", arch, err)
	}
	a, err := blockNames(zoo, "")
	if err != nil {
		return nil, false, err
	}
	b, err := blockNames(sub, placeholder+".")
	if err != nil {
		return nil, false, err
	}
	t.cuts = fmt.Sprintf("builder partition %s, graph JSON partition %s", describe(a), describe(b))
	return t, fmt.Sprint(a) == fmt.Sprint(b), nil
}

// blockNames lists each block's node names, with prefix removed.
func blockNames(g *ios.Graph, prefix string) ([][]string, error) {
	blocks, err := g.Partition(0)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(blocks))
	for i, b := range blocks {
		for _, n := range b.Nodes {
			out[i] = append(out[i], n.Name[len(prefix):])
		}
	}
	return out, nil
}

func describe(blocks [][]string) string {
	most := 0
	for _, b := range blocks {
		most = max(most, len(b))
	}
	return fmt.Sprintf("%d blocks (largest %d ops)", len(blocks), most)
}

func (g *novelGen) novel() bool { return true }

// instance renders a copy of t under a prefix no other request of this
// run uses.
func (g *novelGen) instance(t *template) []byte {
	prefix := fmt.Appendf(nil, "%06x%06x", g.salt, g.n.Add(1)&0xffffff)
	b := append([]byte(nil), t.body...)
	for _, off := range t.offs {
		copy(b[off:], prefix)
	}
	return b
}

func (g *novelGen) next(rng *rand.Rand) request {
	t := g.tmpls[rng.Intn(len(g.tmpls))]
	return request{arch: t.arch, body: g.instance(t)}
}

func (g *novelGen) replayBody(r request) []byte {
	for _, t := range g.tmpls {
		if t.arch == r.arch {
			return g.instance(t)
		}
	}
	return r.body
}

// warm submits each architecture once, in seeded order, so the block and
// measurement caches hold all of their structure.
func (g *novelGen) warm(ctx context.Context, e *serveEnv, want map[string]float64) error {
	var buf bytes.Buffer
	for _, i := range g.order {
		r := request{arch: g.tmpls[i].arch, body: g.instance(g.tmpls[i])}
		status, _, err := e.post(ctx, r.body, "", &buf)
		if err == nil {
			err = checkResponse(status, buf.Bytes(), r, true, want[r.arch])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// requestGraph rebuilds the graph a request asked about.
func requestGraph(r request, novel bool) (*ios.Graph, error) {
	if !novel {
		e, ok := models.EntryByName(r.arch)
		if !ok {
			return nil, fmt.Errorf("unknown model %s", r.arch)
		}
		return e.Build(1), nil
	}
	var req serve.OptimizeRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return nil, err
	}
	return graph.FromJSON(req.Graph)
}
