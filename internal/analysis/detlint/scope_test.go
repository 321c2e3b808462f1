package detlint

import (
	"testing"

	"earth/internal/analysis/framework"
)

// TestScopeResolves: a package deleted or renamed under a scope entry
// would otherwise drop out of patrol without a sound.
func TestScopeResolves(t *testing.T) { framework.ScopeResolves(t, criticalPkgs) }
