// Package keep is the one rule by which the write path decides how much of
// the scratch memory a commit or flush used it keeps for the next one: room
// for Slack times what the last use needed, and never less than Floor bytes'
// worth. A steady stream of commits thus allocates nothing once its scratch
// has grown, while room a bulk commit grew is dropped as soon as a use needs
// less than a Slack-th of it, rather than held for good.
//
// Neither constant was chosen by a measurement: Slack leaves a use room to
// vary fourfold before it allocates again, and Floor is one small page.
package keep

const (
	Slack = 4
	Floor = 4096 // bytes
)

// Room is the most room, in entries of size bytes, that a scratch slice,
// list or map keeps after a use of used entries.
func Room(used, size int) int { return max(Floor/size, Slack*used) }
