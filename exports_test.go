package convoys_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported names under internal/ that no non-test code
// outside their own declaration references, each with the reason it stays.
// A key is "pkg.Name" for a function or type and "pkg.Type.Method" for a
// method.
var keptExports = map[string]string{
	// The ladder (bench/ladder) reaches these; its first cut re-decides them.
	"core.Filter":               ladder,
	"core.Refine":               ladder,
	"core.WithIncremental":      ladder,
	"dbscan.Cluster":            ladder,
	"increment.Engine.Counters": ladder,
	"model.DB.SnapshotAt":       ladder,
	"dist.SortedLabelIndex":     ladder,
	"datagen.Commute":           ladder,
	"core.RemapConvoys":         ladder,

	// serve aliases the wire schema for code that embeds the server; these
	// are the ones only the ladder spells serve.<name>.
	"serve.EventsResponse":       ladder,
	"serve.FeedCloseResponse":    ladder,
	"serve.MonitorCloseResponse": ladder,
	"serve.TicksResponse":        ladder,
	"serve.WALStatusJSON":        ladder,

	"datagen.AllProfiles": "the test-data catalogue: every profile of Table 3 at one scale",
	"core.WithTolerance":  "the paper's Figure 14 switch: TestPaperClaims and the ablation benchmarks set it",
	"core.WithAblation":   "the paper's §7 ablation switches: the ablation tests and benchmarks set them",
}

const ladder = "bench/ladder imports it"

// testSupport are the packages that exist for tests: their exports are
// called from _test.go files only, by design.
var testSupport = map[string]bool{
	"repro/internal/oracle":      true,
	"repro/internal/wal/waltest": true,
}

// TestInternalExportsHaveCallers type-checks every non-test file of the
// module, and the ladder's, and fails on an exported function, method,
// defined type or type alias under internal/ that no non-test code outside
// its own declaration references: a name only tests call is test code in a
// production package. The ladder's references do not count; a name only
// the ladder reaches is listed in keptExports, and the list fails when a
// listed name is gone, referenced again, or no longer the ladder's.
//
// Exceptions are keptExports, the test-support packages, methods of the
// types the root package aliases (they are the library's surface), interface
// methods and methods that satisfy an interface (an error's Unwrap included:
// package errors calls it through an interface of its own).
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)
	aliased := m.rootAliases()
	seen := map[string]bool{}
	var unused []string
	for _, d := range m.exportedDecls() {
		key := d.key()
		seen[key] = true
		used, byLadder := m.references(d)
		reason, kept := keptExports[key]
		switch {
		case kept && used:
			t.Errorf("keptExports lists %s, but a non-test file references it", key)
		case kept && reason == ladder && !byLadder:
			t.Errorf("keptExports lists %s for the ladder, which does not reference it", key)
		case kept, used, aliased[d.recv]:
		case d.recv != nil && m.satisfiesInterface(d):
		default:
			unused = append(unused, fmt.Sprintf("%s (%s)", key, m.fset.Position(d.obj.Pos())))
		}
	}
	for key := range keptExports {
		if !seen[key] {
			t.Errorf("keptExports lists %s, which is not an exported name under internal/", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no non-test code outside its declaration references %s: delete it, move it into a test, or list it in keptExports", u)
	}
}

// module is the module's packages and the ladder, type-checked from their
// non-test files.
type module struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	paths []string                     // every package of the module, then the ladder
	uses  map[types.Object][]token.Pos // where each object is referenced
}

func loadModule(t *testing.T) *module {
	m := &module{
		t:     t,
		fset:  token.NewFileSet(),
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		uses:  map[types.Object][]token.Pos{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || p == "bench") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
			m.paths = append(m.paths, strings.TrimSuffix("repro/"+filepath.ToSlash(p), "/."))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.paths = append(m.paths, "repro/bench/ladder")
	for _, path := range m.paths {
		m.check(path)
	}
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		m.uses[obj] = append(m.uses[obj], id.Pos())
	}
	return m
}

// Import resolves the module's own packages from source, once each.
func (m *module) Import(path string) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return m.check(path), nil
	}
	return m.std.Import(path)
}

func (m *module) check(path string) *types.Package {
	if p, ok := m.pkgs[path]; ok {
		return p
	}
	dir := "." + strings.TrimPrefix(path, "repro")
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		m.t.Fatalf("%s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			m.t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	if err != nil {
		m.t.Fatalf("%s: %v", path, err)
	}
	m.pkgs[path], m.files[path] = p, files
	return p
}

// decl is one exported function, method, defined type or type alias under
// internal/.
type decl struct {
	obj      types.Object
	recv     *types.TypeName // a method's receiver type; nil otherwise
	pos, end token.Pos       // the declaration, whose own uses do not count
}

func (d decl) key() string {
	name := d.obj.Pkg().Name() + "."
	if d.recv != nil {
		name += d.recv.Name() + "."
	}
	return name + d.obj.Name()
}

func (m *module) exportedDecls() []decl {
	var out []decl
	for _, path := range m.paths {
		if !strings.HasPrefix(path, "repro/internal/") || testSupport[path] {
			continue
		}
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					var recv *types.TypeName
					if d.Recv != nil {
						t := m.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						if recv = t.(*types.Named).Origin().Obj(); !recv.Exported() {
							continue
						}
					}
					out = append(out, decl{m.info.Defs[d.Name], recv, d.Pos(), d.End()})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							out = append(out, decl{m.info.Defs[ts.Name], nil, ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}
	return out
}

// references reports whether non-test code of the module outside d's own
// declaration uses d, and whether the ladder does.
func (m *module) references(d decl) (used, byLadder bool) {
	for _, pos := range m.uses[d.obj] {
		switch {
		case pos >= d.pos && pos < d.end:
		case strings.HasPrefix(m.fset.Position(pos).Filename, "bench/"):
			byLadder = true
		default:
			used = true
		}
	}
	return used, byLadder
}

// rootAliases returns the internal types the root package aliases: their
// methods are the library's surface.
func (m *module) rootAliases() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	scope := m.pkgs["repro"].Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[n.Origin().Obj()] = true
			}
		}
	}
	return out
}

// satisfiesInterface reports whether method d is part of an interface
// that d's receiver implements: error, one package errors looks for, or one
// declared by a package the module imports.
func (m *module) satisfiesInterface(d decl) bool {
	named := d.recv.Type()
	implements := func(iface *types.Interface) bool {
		return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
	}
	declares := func(iface *types.Interface) bool {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == d.obj.Name() {
				return true
			}
		}
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	switch d.obj.Name() {
	case "Error", "Unwrap", "Is", "As":
		if implements(errIface) {
			return true
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) bool
	walk = func(p *types.Package) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && declares(iface) && implements(iface) {
					return true
				}
			}
		}
		for _, imp := range p.Imports() {
			if walk(imp) {
				return true
			}
		}
		return false
	}
	for _, path := range m.paths {
		if walk(m.pkgs[path]) {
			return true
		}
	}
	return false
}
