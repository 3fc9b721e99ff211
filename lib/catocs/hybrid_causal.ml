(* Hybrid-buffering causal delivery (Almeida, "Space-Optimal,
   Computation-Optimal, Topology-Agnostic, Throughput-Scalable Causal
   Delivery through Hybrid Buffering", 2024).

   PC-broadcast already gets constant per-message metadata from FIFO links
   plus forward-on-first-delivery; the price is forwarding redundancy — on
   a dense overlay every member receives up to degree copies of each
   message, and all but the first are dropped as duplicates. The hybrid
   refinement moves buffering to the *sender* side of each link:

   - {e Delivered-knowledge suppression.} Each member tracks, per outgoing
     link, how far the peer is known to have delivered each origin. The
     proofs are free: a copy of (origin [o], seq [s]) arriving {e from}
     peer [j] proves [j] delivered [o] contiguously through [s] (PC
     forwards at first delivery, and delivers per-origin in order); a
     gossip vector or barrier pong from [j] carries [j]'s delivered counts
     outright. A forward to a peer that provably already delivered the
     message is suppressed — by construction it removes exactly a
     would-be duplicate, so delivery logs are byte-identical to plain
     PC-broadcast (the differential battery in [test/test_hybrid_equiv.ml]
     pins this against both PC and BSS).

   - {e Closed-link sender buffers.} While a fresh link is barrier-pending
     (ping sent, pong not yet back), every copy that would have crossed it
     — own multicasts and forwards alike — is parked in a per-link
     outgoing buffer instead of being dropped. The pong's delivered vector
     then drains the buffer: parked copies the peer is shown to have
     (delivered elsewhere, or predating its join) are discarded, the rest
     are sent in park order (our delivery order — causally consistent on
     the FIFO link). Plain PC instead rescans the whole unstable buffer on
     every pong; the hybrid buffer holds exactly what this link withheld.

   Both mechanisms are pure sender-side state over the existing [Pc_causal]
   substrate (overlay, arrival records, ping/pong barrier), so the module
   is topology-agnostic across the [Config.pc_overlay]s. Per-link knowledge
   costs O(group) words per overlay neighbor: O(degree x group) per member
   — linear in group size on the bounded-degree tree overlays the large
   sweeps use. *)

(* Test hook, in the style of [Pc_causal.chaos_disable_forwarding]: invert
   the needs-copy decision that gates both forward suppression and the
   pong-triggered drain. Every first-time forward is then suppressed (and
   drains ship only redundant copies), degrading the stack to bare FIFO
   links — per-origin order survives, cross-origin causality does not, and
   the checker's causal oracle must convict (see [test/test_check.ml]). *)
let chaos_invert_drain = ref false

type stats = {
  mutable suppressed : int;
      (* forwards withheld: peer already known to have delivered *)
  mutable parked : int;  (* copies buffered on barrier-pending links *)
  mutable drained : int;  (* parked copies sent when the pong opened the link *)
  mutable drain_dropped : int;
      (* parked copies discarded at drain: the pong proved the peer has them *)
}

type 'a t = {
  group_size : int;
  slot_of_rank : int array;  (* rank -> index into [peers]; -1 = not a neighbor *)
  peers : int array;  (* overlay neighbor ranks, ascending (= Pc_causal.neighbors) *)
  known : int array array;
      (* [known.(slot).(origin)]: highest seq of [origin] peer [slot] is
         known to have delivered (contiguously, by the per-origin gate) *)
  parked : 'a Wire.data Queue.t array;  (* per-peer closed-link outgoing buffer *)
  stats : stats;
}

let create ~group_size ~neighbors =
  let slot_of_rank = Array.make group_size (-1) in
  Array.iteri (fun slot r -> slot_of_rank.(r) <- slot) neighbors;
  { group_size;
    slot_of_rank;
    peers = neighbors;
    known = Array.map (fun _ -> Array.make group_size 0) neighbors;
    parked = Array.map (fun _ -> Queue.create ()) neighbors;
    stats = { suppressed = 0; parked = 0; drained = 0; drain_dropped = 0 } }

let stats t = t.stats

let slot t ~peer =
  if peer >= 0 && peer < t.group_size then t.slot_of_rank.(peer) else -1

let known_seq t ~peer ~origin =
  let s = slot t ~peer in
  if s < 0 then 0 else t.known.(s).(origin)

(* A copy of (origin, seq) arrived from [peer]: the peer delivered that
   origin through [seq] before sending it. *)
let note_copy t ~peer ~origin ~seq =
  let s = slot t ~peer in
  if s >= 0 && origin >= 0 && origin < t.group_size && seq > t.known.(s).(origin)
  then t.known.(s).(origin) <- seq

(* [peer] reported its full delivered vector (gossip or barrier pong). *)
let note_delivered_vector t ~peer vc =
  let s = slot t ~peer in
  if s >= 0 then begin
    let row = t.known.(s) in
    let n = min t.group_size (Vector_clock.size vc) in
    for o = 0 to n - 1 do
      let v = Vector_clock.get vc o in
      if v > row.(o) then row.(o) <- v
    done
  end

(* The drain condition: does [peer] still need a copy of (origin, seq)? *)
let needs_copy t ~peer ~origin ~seq =
  let real = known_seq t ~peer ~origin < seq in
  if !chaos_invert_drain then not real else real

let note_suppressed t = t.stats.suppressed <- t.stats.suppressed + 1

(* Park a copy for a barrier-pending link. Park order is our delivery/send
   order, which is causally consistent — the drain replays it onto the
   FIFO link unchanged. *)
let park t ~peer (data : 'a Wire.data) =
  let s = slot t ~peer in
  if s >= 0 then begin
    Queue.push data t.parked.(s);
    t.stats.parked <- t.stats.parked + 1
  end

let parked_count t ~peer =
  let s = slot t ~peer in
  if s < 0 then 0 else Queue.length t.parked.(s)

(* The pong from [peer] arrived carrying its [delivered] vector: absorb the
   knowledge, then return the parked copies the peer still needs, in park
   order. An empty result (empty buffer, or every copy already covered — the
   "empty ack") is normal: the link just opens with nothing to send. *)
let drain t ~peer ~delivered =
  note_delivered_vector t ~peer delivered;
  let s = slot t ~peer in
  if s < 0 then []
  else begin
    let q = t.parked.(s) in
    let out = ref [] in
    while not (Queue.is_empty q) do
      let (data : 'a Wire.data) = Queue.pop q in
      let origin = data.Wire.sender_rank in
      let seq = Wire.sender_seq data in
      if needs_copy t ~peer ~origin ~seq then begin
        t.stats.drained <- t.stats.drained + 1;
        out := data :: !out
      end
      else t.stats.drain_dropped <- t.stats.drain_dropped + 1
    done;
    List.rev !out
  end
