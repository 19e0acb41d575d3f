package circuit

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/gates"
)

// FromQASM parses the OpenQASM 2.0 subset ToQASM emits (plus the common
// Qiskit spellings): one quantum and one classical register, qelib1
// gates, measure and barrier statements, and constant parameter
// expressions over numbers and pi with + − * / and parentheses.
func FromQASM(src string) (*Circuit, error) {
	var c *Circuit
	qregName, cregName := "", ""
	nq, nc := 0, 0
	sawHeader := false

	// Strip comments, split on semicolons.
	var cleaned strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		cleaned.WriteString(line)
		cleaned.WriteByte('\n')
	}
	for lineNo, stmt := range strings.Split(cleaned.String(), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		switch {
		case strings.HasPrefix(stmt, "OPENQASM"):
			if !strings.Contains(stmt, "2.0") {
				return nil, fmt.Errorf("qasm: unsupported version in %q", stmt)
			}
			sawHeader = true
		case strings.HasPrefix(stmt, "include"):
			// qelib1.inc is implied.
		case strings.HasPrefix(stmt, "qreg"):
			name, size, err := parseRegDecl(stmt[len("qreg"):])
			if err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
			if qregName != "" {
				return nil, fmt.Errorf("qasm: multiple quantum registers unsupported")
			}
			qregName, nq = name, size
		case strings.HasPrefix(stmt, "creg"):
			name, size, err := parseRegDecl(stmt[len("creg"):])
			if err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
			if cregName != "" {
				return nil, fmt.Errorf("qasm: multiple classical registers unsupported")
			}
			cregName, nc = name, size
		case strings.HasPrefix(stmt, "measure"):
			if c == nil {
				c = New(nq, nc)
			}
			rest := strings.TrimSpace(stmt[len("measure"):])
			parts := strings.Split(rest, "->")
			if len(parts) != 2 {
				return nil, fmt.Errorf("qasm: statement %d: malformed measure %q", lineNo, stmt)
			}
			q, err := parseIndexed(strings.TrimSpace(parts[0]), qregName)
			if err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
			cb, err := parseIndexed(strings.TrimSpace(parts[1]), cregName)
			if err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
			if err := c.Append(Instruction{Op: OpMeasure, Qubits: []int{q}, Clbits: []int{cb}}); err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
		case strings.HasPrefix(stmt, "barrier"):
			if c == nil {
				c = New(nq, nc)
			}
			rest := strings.TrimSpace(stmt[len("barrier"):])
			var qubits []int
			if rest != qregName { // "barrier q" = all qubits = empty list
				for _, operand := range strings.Split(rest, ",") {
					q, err := parseIndexed(strings.TrimSpace(operand), qregName)
					if err != nil {
						return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
					}
					qubits = append(qubits, q)
				}
			}
			if err := c.Append(Instruction{Op: OpBarrier, Qubits: qubits}); err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
		default:
			if !sawHeader {
				return nil, fmt.Errorf("qasm: missing OPENQASM header")
			}
			if c == nil {
				c = New(nq, nc)
			}
			if err := parseGateStmt(c, stmt, qregName); err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %w", lineNo, err)
			}
		}
	}
	if c == nil {
		c = New(nq, nc)
	}
	return c, nil
}

// parseRegDecl parses ` name[size]`.
func parseRegDecl(rest string) (string, int, error) {
	rest = strings.TrimSpace(rest)
	open := strings.IndexByte(rest, '[')
	if open <= 0 || !strings.HasSuffix(rest, "]") {
		return "", 0, fmt.Errorf("malformed register declaration %q", rest)
	}
	size, err := strconv.Atoi(rest[open+1 : len(rest)-1])
	if err != nil || size < 0 {
		return "", 0, fmt.Errorf("malformed register size in %q", rest)
	}
	return rest[:open], size, nil
}

// parseIndexed parses `name[idx]` and checks the register name.
func parseIndexed(s, regName string) (int, error) {
	open := strings.IndexByte(s, '[')
	if open <= 0 || !strings.HasSuffix(s, "]") {
		return 0, fmt.Errorf("malformed operand %q", s)
	}
	if s[:open] != regName {
		return 0, fmt.Errorf("operand %q references unknown register (want %q)", s, regName)
	}
	idx, err := strconv.Atoi(s[open+1 : len(s)-1])
	if err != nil {
		return 0, fmt.Errorf("malformed index in %q", s)
	}
	return idx, nil
}

// qasmToGate maps qelib1 spellings back to internal names.
var qasmToGate = map[string]gates.Name{
	"id": gates.I, "x": gates.X, "y": gates.Y, "z": gates.Z, "h": gates.H,
	"s": gates.S, "sdg": gates.Sdg, "t": gates.T, "tdg": gates.Tdg, "sx": gates.SX,
	"rx": gates.RX, "ry": gates.RY, "rz": gates.RZ, "u1": gates.P, "p": gates.P,
	"cx": gates.CX, "cz": gates.CZ, "cu1": gates.CP, "cp": gates.CP, "swap": gates.SWAP,
	"ccx": gates.CCX, "cswap": gates.CSWAP,
}

func parseGateStmt(c *Circuit, stmt, qregName string) error {
	// Shape: name[(params)] operand[, operand...]
	nameEnd := strings.IndexAny(stmt, "( \t")
	if nameEnd < 0 {
		return fmt.Errorf("malformed gate statement %q", stmt)
	}
	name := stmt[:nameEnd]
	gate, ok := qasmToGate[name]
	if !ok {
		return fmt.Errorf("unknown gate %q", name)
	}
	rest := stmt[nameEnd:]
	var params []float64
	if strings.HasPrefix(strings.TrimSpace(rest), "(") {
		rest = strings.TrimSpace(rest)
		// Find the matching close paren (parameters may nest parens).
		depth := 0
		close := -1
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					close = i
				}
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return fmt.Errorf("unclosed parameter list in %q", stmt)
		}
		for _, expr := range splitTopLevel(rest[1:close]) {
			v, err := evalExpr(expr)
			if err != nil {
				return err
			}
			// Finite operands can still overflow, e.g. 1e308*10.
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("parameter %q is not finite (%v)", strings.TrimSpace(expr), v)
			}
			params = append(params, v)
		}
		rest = rest[close+1:]
	}
	var qubits []int
	for _, operand := range strings.Split(strings.TrimSpace(rest), ",") {
		q, err := parseIndexed(strings.TrimSpace(operand), qregName)
		if err != nil {
			return err
		}
		qubits = append(qubits, q)
	}
	return c.Append(Instruction{Op: OpGate, Gate: gate, Qubits: qubits, Params: params})
}

// splitTopLevel splits a parameter list on commas not nested in parens.
func splitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// evalExpr evaluates a constant expression over numbers and pi with
// + − * / and parentheses (recursive descent).
func evalExpr(s string) (float64, error) {
	p := &exprParser{src: strings.TrimSpace(s)}
	v, err := p.sum()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("trailing input in expression %q", s)
	}
	return v, nil
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) sum() (float64, error) {
	v, err := p.product()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return v, nil
		}
		switch p.src[p.pos] {
		case '+':
			p.pos++
			r, err := p.product()
			if err != nil {
				return 0, err
			}
			v += r
		case '-':
			p.pos++
			r, err := p.product()
			if err != nil {
				return 0, err
			}
			v -= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) product() (float64, error) {
	v, err := p.unary()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return v, nil
		}
		switch p.src[p.pos] {
		case '*':
			p.pos++
			r, err := p.unary()
			if err != nil {
				return 0, err
			}
			v *= r
		case '/':
			p.pos++
			r, err := p.unary()
			if err != nil {
				return 0, err
			}
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= r
		default:
			return v, nil
		}
	}
}

func (p *exprParser) unary() (float64, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
		v, err := p.unary()
		return -v, err
	}
	return p.atom()
}

func (p *exprParser) atom() (float64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	if p.src[p.pos] == '(' {
		p.pos++
		v, err := p.sum()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return 0, fmt.Errorf("missing closing parenthesis")
		}
		p.pos++
		return v, nil
	}
	if strings.HasPrefix(p.src[p.pos:], "pi") {
		p.pos += 2
		return math.Pi, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		ch := p.src[p.pos]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' || ch == 'E' ||
			((ch == '+' || ch == '-') && p.pos > start && (p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E')) {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return 0, fmt.Errorf("unexpected character %q in expression", p.src[p.pos])
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("malformed number %q", p.src[start:p.pos])
	}
	return v, nil
}
