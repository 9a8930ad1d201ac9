package webcache

import (
	"testing"

	"github.com/splaykit/splay/internal/llenc/codectest"
)

// TestHotMessagesTakeTheFastPath pins that the cache_get reply takes the
// derived codec both ways.
func TestHotMessagesTakeTheFastPath(t *testing.T) {
	codectest.Accepts(t, cacheReply{})
	codectest.Accepts(t, cacheReply{Hit: true, Size: 8 << 10})
}
