package poly

// Order is a monomial order: a total order on monomials of one arity that
// is compatible with multiplication and has 1 as least element. Compare
// returns -1, 0 or +1 as a <, =, > b.
type Order interface {
	Compare(a, b Mono) int
	Name() string
}

// Lex is pure lexicographic order: compare exponents variable by variable.
// This is the "total lexicographic order" used for all Gröbner inputs in
// the paper's Table 2.
type Lex struct{}

// Name implements Order.
func (Lex) Name() string { return "lex" }

// Compare implements Order.
func (Lex) Compare(a, b Mono) int {
	for i := range a {
		switch {
		case a[i] > b[i]:
			return 1
		case a[i] < b[i]:
			return -1
		}
	}
	return 0
}

// GrLex is graded lexicographic order: total degree first, lex ties.
type GrLex struct{}

// Name implements Order.
func (GrLex) Name() string { return "grlex" }

// Compare implements Order.
func (GrLex) Compare(a, b Mono) int {
	da, db := a.TotalDeg(), b.TotalDeg()
	switch {
	case da > db:
		return 1
	case da < db:
		return -1
	}
	return Lex{}.Compare(a, b)
}

// GRevLex is graded reverse lexicographic order: total degree first, then
// the *smaller* exponent in the *last* differing variable wins. It is the
// order of choice for efficient Gröbner computations.
type GRevLex struct{}

// Name implements Order.
func (GRevLex) Name() string { return "grevlex" }

// Compare implements Order.
func (GRevLex) Compare(a, b Mono) int {
	da, db := a.TotalDeg(), b.TotalDeg()
	switch {
	case da > db:
		return 1
	case da < db:
		return -1
	}
	for i := len(a) - 1; i >= 0; i-- {
		switch {
		case a[i] < b[i]:
			return 1
		case a[i] > b[i]:
			return -1
		}
	}
	return 0
}
