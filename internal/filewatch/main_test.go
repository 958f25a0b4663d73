package filewatch

import (
	"testing"

	"github.com/reversecloak/reversecloak/internal/leakcheck"
)

// TestMain fails the package when a goroutine outlives its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
