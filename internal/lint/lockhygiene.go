package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// LockHygiene flags operations that can block indefinitely while a
// sync.Mutex/RWMutex is lexically held — the exact shape behind the
// cache-I/O-under-mutex fix (PR 4) and the dispatcher hold-and-wait
// deadlock (PR 8). The analysis is lexical and per function body:
// statements between a mu.Lock()/mu.RLock() and the matching
// mu.Unlock()/mu.RUnlock() (or to the end of the body after a
// `defer mu.Unlock()`) must not perform network or file I/O, run or
// wait on subprocesses, send/receive on channels, select without a
// default, range over a channel, sleep, wait on a WaitGroup/Cond, or
// call the testbed frame codecs against a connection.
//
// Function literals are separate bodies: a goroutine or stored closure
// does not execute under the lexically surrounding lock, and
// conversely a lock taken inside a literal is scoped to it.
var LockHygiene = &Analyzer{
	Name: "lockhygiene",
	Doc: `flags blocking operations (network/file I/O, exec, channel
send/recv, selects without default, Wait, frame encode/decode to a
conn) lexically between a mutex Lock and its Unlock in the same
function body — holding a lock across an unbounded wait is the
hold-and-wait half of every deadlock this repo has shipped`,
	Run: runLockHygiene,
}

func runLockHygiene(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch d := n.(type) {
			case *ast.FuncDecl:
				body = d.Body
			case *ast.FuncLit:
				body = d.Body
			default:
				return true
			}
			if body != nil {
				w := &lockWalker{pass: pass, held: map[string]token.Pos{}}
				w.stmts(body.List)
			}
			return true // descend: nested literals start their own walker
		})
	}
}

// lockWalker tracks lexically held mutexes through one function body.
type lockWalker struct {
	pass *Pass
	// held maps the rendered mutex expression (e.g. "s.mu") to the
	// position of its Lock call.
	held map[string]token.Pos
}

// stmts walks a statement list in source order.
func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.lockTransition(call, false) {
				return
			}
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex lexically held to the end of
		// the body (every later statement runs under it). Other deferred
		// calls run at return time with unknowable lock state; skip them.
		w.lockTransition(s.Call, true)
	case *ast.GoStmt:
		// The spawned goroutine does not hold the caller's locks; only
		// the call's argument expressions evaluate here.
		for _, arg := range s.Call.Args {
			w.expr(arg)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		if key, pos := w.anyHeld(); key != "" {
			w.pass.Reportf(s.Arrow,
				"channel send while %s is held (locked at %s) can block indefinitely under the lock",
				key, w.pass.Fset.Position(pos))
		}
	case *ast.SelectStmt:
		w.selectStmt(s)
	case *ast.RangeStmt:
		w.expr(s.X)
		if key, pos := w.anyHeld(); key != "" {
			if tv, ok := w.pass.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.pass.Reportf(s.Range,
						"range over a channel while %s is held (locked at %s) blocks under the lock until the channel closes",
						key, w.pass.Fset.Position(pos))
				}
			}
		}
		w.stmts(s.Body.List)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmts(s.Body.List)
		w.stmt(s.Post)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IncDecStmt:
		w.expr(s.X)
	default:
		// Branch/empty statements carry no expressions.
	}
}

// selectStmt handles select: with a default clause every communication
// is non-blocking; without one the select parks the goroutine.
func (w *lockWalker) selectStmt(s *ast.SelectStmt) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if key, pos := w.anyHeld(); key != "" && !hasDefault {
		w.pass.Reportf(s.Select,
			"select without a default while %s is held (locked at %s) parks the goroutine under the lock",
			key, w.pass.Fset.Position(pos))
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		// The comm statements themselves were accounted for above (or are
		// non-blocking under a default); the clause bodies run normally.
		w.stmts(cc.Body)
	}
}

// expr scans an expression tree for blocking operations, skipping
// function literals (separate bodies).
func (w *lockWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if key, pos := w.anyHeld(); key != "" {
					w.pass.Reportf(n.OpPos,
						"channel receive while %s is held (locked at %s) can block indefinitely under the lock",
						key, w.pass.Fset.Position(pos))
				}
			}
		case *ast.CallExpr:
			w.checkBlockingCall(n)
		}
		return true
	})
}

// anyHeld returns one currently held mutex key and its lock position
// ("" when none are held).
func (w *lockWalker) anyHeld() (string, token.Pos) {
	best := ""
	var bestPos token.Pos
	for key, pos := range w.held {
		if best == "" || key < best {
			best, bestPos = key, pos
		}
	}
	return best, bestPos
}

// lockTransition updates the held set when call is a Lock/Unlock on a
// sync mutex, returning true if the call was such a transition. A
// deferred Unlock marks the mutex held for the rest of the body rather
// than releasing it.
func (w *lockWalker) lockTransition(call *ast.CallExpr, deferred bool) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := w.pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	key := w.render(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		if deferred {
			return true // defer mu.Lock() is a bug, but not this analyzer's
		}
		w.held[key] = call.Pos()
		return true
	case "Unlock", "RUnlock":
		if !deferred {
			delete(w.held, key)
		}
		// Deferred: the mutex stays lexically held to the end of the body.
		return true
	case "TryLock", "TryRLock":
		return true // conditional acquisition: not tracked
	}
	return false
}

// render prints the receiver expression as its source text, the key two
// Lock/Unlock calls on the same mutex share.
func (w *lockWalker) render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, w.pass.Fset, e); err != nil {
		return "<mutex>"
	}
	return buf.String()
}

// ioMethodNames are method names that perform transport I/O when the
// receiver is a net/bufio/os/io type.
var ioMethodNames = map[string]bool{
	"Read": true, "Write": true, "Flush": true, "ReadFrom": true,
	"WriteTo": true, "ReadString": true, "ReadBytes": true,
	"ReadSlice": true, "ReadLine": true, "Peek": true, "WriteString": true,
	"ReadRune": true, "ReadByte": true, "Accept": true,
}

// blockingOsFuncs are the os package-level file-I/O entry points.
var blockingOsFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Mkdir": true,
	"MkdirAll": true, "MkdirTemp": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Stat": true, "Lstat": true, "Chmod": true,
	"Truncate": true, "Symlink": true, "Link": true,
}

// blockingIoFuncs are the io package-level copy/read helpers that drive
// an underlying reader/writer.
var blockingIoFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true,
	"ReadFull": true, "ReadAtLeast": true, "WriteString": true,
}

// testbedFrameFuncs are this repo's frame-codec entry points that read
// or write a transport (the PR 8 deadlock called one with a dispatcher
// lock held). The pure in-memory codecs (EncodeBinary, DecodeBinary)
// are deliberately absent.
var testbedFrameFuncs = map[string]bool{
	"WriteFrame": true, "ReadFrame": true, "WriteBinaryFrame": true,
	"ReadBinaryFrame": true, "WriteRawFrame": true, "ReadRawFrame": true,
	"ReadHello": true, "Serve": true, "ServeListener": true,
}

// checkBlockingCall reports call if it is a known blocking operation and
// a mutex is held.
func (w *lockWalker) checkBlockingCall(call *ast.CallExpr) {
	key, lockPos := w.anyHeld()
	if key == "" {
		return
	}
	fn := w.pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	what := blockingCallee(fn)
	if what == "" {
		return
	}
	w.pass.Reportf(call.Pos(),
		"%s while %s is held (locked at %s): blocking under a mutex invites hold-and-wait deadlocks; do the work outside the critical section",
		what, key, w.pass.Fset.Position(lockPos))
}

// blockingCallee classifies fn, returning a short description when it
// can block indefinitely and "" otherwise.
func blockingCallee(fn *types.Func) string {
	name := fn.Name()
	pkgPath := fn.Pkg().Path()
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		rname := ""
		if named, ok := rt.(*types.Named); ok {
			rname = named.Obj().Name()
		}
		switch {
		case pkgPath == "sync" && name == "Wait" && (rname == "WaitGroup" || rname == "Cond"):
			return "sync." + rname + ".Wait"
		case pkgPath == "os/exec" && rname == "Cmd" &&
			(name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
			return "exec.Cmd." + name
		case pkgPath == "net" && rname == "Dialer" && strings.HasPrefix(name, "Dial"):
			return "net.Dialer." + name
		case pkgPath == "net/http" && rname == "Client" &&
			(name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
			return "http.Client." + name
		case ioMethodNames[name] &&
			(pkgPath == "net" || pkgPath == "bufio" || pkgPath == "os" || pkgPath == "io"):
			return pkgPath + " " + rname + "." + name
		case pkgPath == "repro/internal/sweep" && rname == "DiskCache" && (name == "Get" || name == "Put"):
			return "disk-cache " + rname + "." + name + " (file I/O)"
		case pkgPath == "repro/internal/testbed" && name == "ServeFrames":
			return "testbed Executor." + name + " (serve loop)"
		}
		return ""
	}
	switch pkgPath {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "net":
		if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") {
			return "net." + name
		}
	case "os":
		if blockingOsFuncs[name] {
			return "os." + name + " (file I/O)"
		}
	case "io":
		if blockingIoFuncs[name] {
			return "io." + name
		}
	case "net/http":
		if name == "Get" || name == "Post" || name == "PostForm" || name == "Head" {
			return "http." + name
		}
	case "repro/internal/testbed":
		if testbedFrameFuncs[name] {
			return "testbed." + name + " (frame I/O)"
		}
	}
	return ""
}
