type t = {
  mutable multicasts_sent : int;
  mutable delivered : int;
  mutable ordering_wait_total_us : int;
  mutable transit_total_us : int;
  mutable delayed_messages : int;
  mutable unstable_bytes : int;
  mutable unstable_count : int;
  mutable peak_unstable_bytes : int;
  mutable peak_unstable_count : int;
  mutable control_messages : int;
  mutable flush_messages : int;
  mutable header_bytes : int;
  mutable dropped_at_view_change : int;
  mutable suppressed_us : int;
  mutable view_changes : int;
}

let create () =
  { multicasts_sent = 0; delivered = 0; ordering_wait_total_us = 0;
    transit_total_us = 0; delayed_messages = 0;
    unstable_bytes = 0; unstable_count = 0; peak_unstable_bytes = 0;
    peak_unstable_count = 0; control_messages = 0; flush_messages = 0; header_bytes = 0;
    dropped_at_view_change = 0; suppressed_us = 0; view_changes = 0 }

let mean_of total t =
  if t.delivered = 0 then Float.nan
  else float_of_int total /. float_of_int t.delivered

let mean_ordering_wait_us t = mean_of t.ordering_wait_total_us t
let mean_transit_us t = mean_of t.transit_total_us t

let note_unstable_added t ~bytes =
  t.unstable_bytes <- t.unstable_bytes + bytes;
  t.unstable_count <- t.unstable_count + 1;
  if t.unstable_bytes > t.peak_unstable_bytes then
    t.peak_unstable_bytes <- t.unstable_bytes;
  if t.unstable_count > t.peak_unstable_count then
    t.peak_unstable_count <- t.unstable_count

let note_unstable_removed t ~bytes =
  t.unstable_bytes <- t.unstable_bytes - bytes;
  t.unstable_count <- t.unstable_count - 1

let merge_into acc m =
  acc.multicasts_sent <- acc.multicasts_sent + m.multicasts_sent;
  acc.delivered <- acc.delivered + m.delivered;
  acc.ordering_wait_total_us <-
    acc.ordering_wait_total_us + m.ordering_wait_total_us;
  acc.transit_total_us <- acc.transit_total_us + m.transit_total_us;
  acc.delayed_messages <- acc.delayed_messages + m.delayed_messages;
  acc.unstable_bytes <- acc.unstable_bytes + m.unstable_bytes;
  acc.unstable_count <- acc.unstable_count + m.unstable_count;
  acc.peak_unstable_bytes <- max acc.peak_unstable_bytes m.peak_unstable_bytes;
  acc.peak_unstable_count <- max acc.peak_unstable_count m.peak_unstable_count;
  acc.control_messages <- acc.control_messages + m.control_messages;
  acc.flush_messages <- acc.flush_messages + m.flush_messages;
  acc.header_bytes <- acc.header_bytes + m.header_bytes;
  acc.dropped_at_view_change <-
    acc.dropped_at_view_change + m.dropped_at_view_change;
  acc.suppressed_us <- acc.suppressed_us + m.suppressed_us;
  acc.view_changes <- acc.view_changes + m.view_changes
