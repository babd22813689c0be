package keep

import "testing"

func TestRoom(t *testing.T) {
	for _, tc := range []struct{ used, size, want int }{
		{0, 16, 256},   // the floor, in 16-byte entries
		{10, 16, 256},  // a small use keeps the floor
		{100, 16, 400}, // past the floor, Slack times the use
		{0, 8192, 0},   // entries larger than the floor: no floor
		{3, 8192, 12},
		{4096, 1, 16384},
	} {
		if got := Room(tc.used, tc.size); got != tc.want {
			t.Errorf("Room(%d, %d) = %d, want %d", tc.used, tc.size, got, tc.want)
		}
	}
}
