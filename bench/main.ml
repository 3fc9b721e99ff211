(* Benchmark harness.

   Default mode regenerates every table and figure of the reproduction
   (see EXPERIMENTS.md), then runs bechamel micro-benchmarks on the
   protocol-critical data structures — quantifying the "overhead on every
   message transmission and reception" claim at the CPU level.

   With [--json] it instead produces BENCH_delivery.json: ns/op
   micro-benchmarks of the delivery queue, the stability tracker
   (optimized vs reference implementation, with and without a permanently
   blocked/unstable backlog) and the wire codec (ns/encode, ns/decode and
   real bytes/msg for bss vs pc frames), plus two end-to-end curve
   families from the Section 5 scaling experiment: the "queue" family
   (the list delivery queue under BSS, n = 4/16/64/256/512) and the
   "causal" family (BSS vector timestamps vs PC-broadcast constant
   metadata vs hybrid buffering — the per-delivery metadata curve that is
   linear for bss and flat for pc/hybrid; bss runs the dense stability
   tracker to n = 1024, pc and hybrid run the sparse tracker to n = 4096,
   with a measured per-point peak-heap column). Every end-to-end row
   simulates at least 50 ms. [--domains N] runs the end-to-end sections
   on the parallel engine with N worker domains (default: the sequential
   reference engine). [--smoke] shrinks quotas and sizes for CI (causal
   capped at n = 256 — the n = 1024 bss point needs ~20 GB for the
   group's O(n^2) matrix clocks and lives in the committed full-mode
   baseline).
   [--out FILE] overrides the output path. [--validate FILE] checks the
   schema and pins the pc/hybrid metadata flatness, and with
   [--baseline FILE] additionally fails on a >30%
   deliveries-per-cpu-second or peak-unstable-bytes regression at any
   (impl, group size) present in both files. The schema is documented in
   EXPERIMENTS.md. *)

module Registry = Repro_experiments.Registry
module Scaling = Repro_experiments.Scaling
module Config = Repro_catocs.Config
module Delivery_queue = Repro_catocs.Delivery_queue
module Stability = Repro_catocs.Stability
module Metrics = Repro_catocs.Metrics
module Wire = Repro_catocs.Wire
module Json = Repro_analyze.Json
module Obs_log = Repro_obs.Log

let microbenchmarks () =
  let open Bechamel in
  let vc_pair n =
    let a = Vector_clock.create n and b = Vector_clock.create n in
    for i = 0 to n - 1 do
      Vector_clock.set a i (i * 3);
      Vector_clock.set b i (i * 2)
    done;
    (a, b)
  in
  let bench_vc_compare n =
    let a, b = vc_pair n in
    Test.make ~name:(Printf.sprintf "vc-compare-n%d" n)
      (Staged.stage (fun () -> ignore (Vector_clock.compare_causal a b)))
  in
  let bench_vc_deliverable n =
    let a, b = vc_pair n in
    Test.make ~name:(Printf.sprintf "vc-deliverable-n%d" n)
      (Staged.stage (fun () ->
           ignore (Vector_clock.deliverable ~sender:0 ~msg:a ~local:b)))
  in
  let bench_vc_merge n =
    let a, b = vc_pair n in
    Test.make ~name:(Printf.sprintf "vc-merge-n%d" n)
      (Staged.stage (fun () ->
           let c = Vector_clock.copy a in
           Vector_clock.merge_into c b))
  in
  let bench_lamport =
    let c = Lamport.create () in
    Test.make ~name:"lamport-stamp"
      (Staged.stage (fun () -> ignore (Lamport.stamp c ~node:0)))
  in
  let bench_dep_cache =
    let module Dep_cache = Repro_statelevel.Dep_cache in
    let counter = ref 0 in
    Test.make ~name:"dep-cache-insert-lookup"
      (Staged.stage (fun () ->
           let c = Dep_cache.create () in
           incr counter;
           Dep_cache.insert c
             { Dep_cache.key = "base"; item_version = !counter; value = 1.0;
               deps = [] };
           Dep_cache.insert c
             { Dep_cache.key = "derived"; item_version = !counter; value = 2.0;
               deps =
                 [ { Dep_cache.dep_key = "base"; dep_version = !counter } ] };
           ignore (Dep_cache.lookup c ~key:"derived")))
  in
  let bench_locks =
    let module Lock_manager = Repro_txn.Lock_manager in
    Test.make ~name:"lock-acquire-release"
      (Staged.stage (fun () ->
           let lm = Lock_manager.create () in
           ignore (Lock_manager.acquire lm 1 ~key:"a" Lock_manager.Exclusive);
           ignore (Lock_manager.release_all lm 1)))
  in
  let tests =
    Test.make_grouped ~name:"protocol-structures"
      [ bench_vc_compare 4; bench_vc_compare 64;
        bench_vc_deliverable 4; bench_vc_deliverable 64;
        bench_vc_merge 4; bench_vc_merge 64;
        bench_lamport; bench_dep_cache; bench_locks ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  print_endline "--- micro-benchmarks (per-operation cost) ----------------";
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        match Bechamel.Analyze.OLS.estimates result with
        | Some [ est ] -> (name, est) :: acc
        | Some _ | None -> acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) -> Printf.printf "   %-44s %10.1f ns/op\n" name est)
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* BENCH_delivery.json                                                 *)
(* ------------------------------------------------------------------ *)

let json_float f =
  if not (Float.is_finite f) then "null" else Printf.sprintf "%.3f" f

(* Steady-state delivery-queue cycle: one deliverable message from sender 0
   is added and immediately taken, on top of [blocked] messages that can
   never become deliverable (a per-sender FIFO gap: their sequence numbers
   skip local+1). The deliverable message arrives last, so every take scans
   the whole blocked backlog first. *)
let queue_cycle_bench ~senders ~blocked =
  let open Bechamel in
  let q = Delivery_queue.create Delivery_queue.Causal_full in
  let local = Vector_clock.create senders in
  let mk ~rank ~vt =
    { Delivery_queue.data =
        { Wire.msg_id = 0; trace_id = 0; origin = rank; sender_rank = rank;
          view_id = 0;
          vt; meta = Wire.Causal_meta; payload = 0; payload_bytes = 16;
          sent_at = Sim_time.zero; piggyback = [] };
      arrived_at = Sim_time.zero }
  in
  let per_sender = Array.make senders 0 in
  for i = 0 to blocked - 1 do
    (* never deliverable: seq = 2 + k while local stays at 0, so the
       required seq 1 never exists *)
    let rank = if senders > 1 then 1 + (i mod (senders - 1)) else 0 in
    let vt = Vector_clock.create senders in
    Vector_clock.set vt rank (2 + per_sender.(rank));
    per_sender.(rank) <- per_sender.(rank) + 1;
    Delivery_queue.add q (mk ~rank ~vt)
  done;
  let seq = ref 0 in
  let name = Printf.sprintf "dq-add-take/list/n%d/b%d" senders blocked in
  Test.make ~name
    (Staged.stage (fun () ->
         let s = !seq + 1 in
         let vt = Vector_clock.create senders in
         Vector_clock.set vt 0 s;
         Delivery_queue.add q (mk ~rank:0 ~vt);
         match Delivery_queue.take_deliverable q ~local with
         | Some _ ->
           seq := s;
           Vector_clock.set local 0 s
         | None -> failwith "bench: steady-state message not deliverable"))

let stability_impl_name = function
  | Stability.Incremental -> "incremental"
  | Stability.Reference -> "reference"

(* Steady-state stability cycle: one multicast from sender 0 is buffered,
   then every member's matrix row is observed with a clock covering it, so
   the message stabilises and is released at the last observation — on top
   of [backlog] messages from the other senders that never stabilise. The
   reference implementation rescans the whole buffer on every observation;
   the incremental one pops exactly the released message. *)
let stability_cycle_bench ~impl ~members ~backlog =
  let open Bechamel in
  let metrics = Metrics.create () in
  let st = Stability.create ~impl ~group_size:members ~metrics ~graph:None () in
  let next_id = ref 0 in
  let mk ~rank ~vt =
    incr next_id;
    { Wire.msg_id = !next_id; trace_id = !next_id; origin = rank;
      sender_rank = rank; view_id = 0;
      vt; meta = Wire.Causal_meta; payload = 0; payload_bytes = 16;
      sent_at = Sim_time.zero; piggyback = [] }
  in
  let per_sender = Array.make members 0 in
  for i = 0 to backlog - 1 do
    (* from senders other than 0; no row but their own ever covers their
       sequence numbers, so these stay buffered for the whole run *)
    let rank = if members > 1 then 1 + (i mod (members - 1)) else 0 in
    per_sender.(rank) <- per_sender.(rank) + 1;
    let vt = Vector_clock.create members in
    Vector_clock.set vt rank per_sender.(rank);
    Stability.note_sent_or_delivered st (mk ~rank ~vt)
  done;
  let seq = ref 0 in
  let gossip = Vector_clock.create members in
  let name =
    Printf.sprintf "stab-release/%s/n%d/b%d" (stability_impl_name impl)
      members backlog
  in
  Test.make ~name
    (Staged.stage (fun () ->
         incr seq;
         let vt = Vector_clock.create members in
         Vector_clock.set vt 0 !seq;
         Stability.note_sent_or_delivered st (mk ~rank:0 ~vt);
         Vector_clock.set gossip 0 !seq;
         for r = 0 to members - 1 do
           Stability.observe_vc st ~rank:r ~now:Sim_time.zero gossip
         done;
         if Stability.unstable_count st <> backlog then
           failwith "bench: stability steady state broken"))

(* Wire-codec micro rows: the real cost of the Config.Encoded wire path —
   ns to encode and decode one data frame, and the frame's actual size on
   the wire. The bss frame carries a dense n-component vector timestamp,
   so encode/decode time and bytes/msg grow with the group; the pc frame
   ships only the vector size plus the origin sequence and stays flat.
   Encode alternates between two identical-shape messages so the one-slot
   timestamp memo never hits: the row prices the full serialization, not
   the amortized multicast fan-out. *)
let codec_micro_section ~smoke =
  let open Bechamel in
  let mk_frame ~impl_str ~n =
    let rank = n / 2 in
    let vt = Vector_clock.create n in
    let meta =
      match impl_str with
      | "bss" ->
        for i = 0 to n - 1 do
          Vector_clock.set vt i (i * 3)
        done;
        Wire.Causal_meta
      | _ ->
        Vector_clock.set vt rank 7;
        Wire.Pc_meta { origin_seq = 7 }
    in
    Wire.Proto
      ( 1,
        Wire.Data
          { Wire.msg_id = 12345; trace_id = 12345; origin = rank;
            sender_rank = rank;
            view_id = 3; vt; meta; payload = 42; payload_bytes = 16;
            sent_at = Sim_time.us 987_654; piggyback = [] } )
  in
  let sizes = if smoke then [ 4; 64 ] else [ 4; 64; 256 ] in
  let specs =
    List.concat_map
      (fun impl_str ->
        List.concat_map
          (fun n ->
            let codec = Repro_catocs.Wire_codec.create
                Repro_catocs.Wire_codec.int_payload in
            let a = mk_frame ~impl_str ~n and b = mk_frame ~impl_str ~n in
            let bytes_per_msg =
              String.length (Repro_catocs.Wire_codec.encode codec a)
            in
            let frame = Repro_catocs.Wire_codec.encode codec a in
            let flip = ref false in
            let enc_name = Printf.sprintf "codec-encode/%s/n%d" impl_str n in
            let dec_name = Printf.sprintf "codec-decode/%s/n%d" impl_str n in
            [ (enc_name, impl_str, n, bytes_per_msg,
               Test.make ~name:enc_name
                 (Staged.stage (fun () ->
                      flip := not !flip;
                      ignore
                        (Repro_catocs.Wire_codec.encode codec
                           (if !flip then a else b)))));
              (dec_name, impl_str, n, bytes_per_msg,
               Test.make ~name:dec_name
                 (Staged.stage (fun () ->
                      ignore (Repro_catocs.Wire_codec.decode codec frame)))) ])
          sizes)
      [ "bss"; "pc" ]
  in
  let tests =
    Test.make_grouped ~name:"wire-codec"
      (List.map (fun (_, _, _, _, t) -> t) specs)
  in
  let cfg =
    if smoke then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimate_for suffix =
    Hashtbl.fold
      (fun key result acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let kl = String.length key and sl = String.length suffix in
          if kl >= sl && String.sub key (kl - sl) sl = suffix then
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] -> Some est
            | Some _ | None -> None
          else None)
      results None
  in
  List.map
    (fun (name, impl_str, n, bytes_per_msg, _) ->
      let ns = match estimate_for name with Some e -> e | None -> Float.nan in
      Printf.printf "  micro %-48s %10s ns/op  %4d B/msg\n" name
        (json_float ns) bytes_per_msg;
      Printf.sprintf
        "    { \"name\": %S, \"impl\": %S, \"senders\": %d, \"blocked\": 0, \
         \"ns_per_op\": %s, \"bytes_per_msg\": %d }"
        name impl_str n (json_float ns) bytes_per_msg)
    specs

let micro_section ~smoke =
  let open Bechamel in
  let dq_configs =
    if smoke then [ (4, 0); (16, 64) ]
    else [ (4, 0); (16, 0); (64, 0); (256, 0); (64, 256); (256, 1024) ]
  in
  let stab_configs =
    if smoke then [ (4, 0); (16, 64) ]
    else [ (4, 0); (16, 0); (64, 0); (64, 256); (256, 1024) ]
  in
  let dq_specs =
    List.map
      (fun (senders, blocked) ->
        let name = Printf.sprintf "dq-add-take/list/n%d/b%d" senders blocked in
        (name, "list", senders, blocked,
         queue_cycle_bench ~senders ~blocked))
      dq_configs
  in
  let stab_specs =
    List.concat_map
      (fun impl ->
        List.map
          (fun (members, backlog) ->
            let name =
              Printf.sprintf "stab-release/%s/n%d/b%d"
                (stability_impl_name impl) members backlog
            in
            (name, stability_impl_name impl, members, backlog,
             stability_cycle_bench ~impl ~members ~backlog))
          stab_configs)
      [ Stability.Incremental; Stability.Reference ]
  in
  let specs = dq_specs @ stab_specs in
  let tests =
    Test.make_grouped ~name:"delivery-path"
      (List.map (fun (_, _, _, _, t) -> t) specs)
  in
  let cfg =
    if smoke then Benchmark.cfg ~limit:200 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimate_for suffix =
    Hashtbl.fold
      (fun key result acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let kl = String.length key and sl = String.length suffix in
          if kl >= sl && String.sub key (kl - sl) sl = suffix then
            match Bechamel.Analyze.OLS.estimates result with
            | Some [ est ] -> Some est
            | Some _ | None -> None
          else None)
      results None
  in
  List.map
    (fun (name, impl_str, senders, blocked, _) ->
      let ns = match estimate_for name with Some e -> e | None -> Float.nan in
      Printf.printf "  micro %-48s %10s ns/op\n" name (json_float ns);
      Printf.sprintf
        "    { \"name\": %S, \"impl\": %S, \"senders\": %d, \"blocked\": %d, \
         \"ns_per_op\": %s }"
        name impl_str senders blocked (json_float ns))
    specs

let e2e_section ~engine_impl ~smoke =
  let sizes = if smoke then [ 4; 16 ] else [ 4; 16; 64; 256; 512 ] in
  (* keep the event count roughly constant across sizes: the multicast
     fan-out makes delivered work ~ n^2 x duration *)
  (* smoke runs the same workload as full at the sizes it keeps, so its
     deliveries_per_cpu_second are directly comparable to a committed
     full-mode baseline (the --baseline regression gate relies on this);
     n <= 16 costs well under a CPU second *)
  (* every row simulates at least 50 ms: shorter horizons are dominated by
     stack setup and cut multicasts off mid-propagation, which overstates
     per-delivery costs and understates throughput *)
  let duration_for n =
    if n <= 16 then Sim_time.seconds 1
    else if n <= 64 then Sim_time.ms 300
    else if n <= 256 then Sim_time.ms 60
    else Sim_time.ms 50
  in
  List.map
    (fun n ->
      let duration = duration_for n in
      let t0 = Sys.time () in
      let point =
        match
          Scaling.sweep ~sizes:[ n ] ~seed:11L ~duration ~engine_impl
            ~track_graph:false ()
        with
        | [ p ] -> p
        | _ -> assert false
      in
      let cpu = Sys.time () -. t0 in
      let rate =
        if cpu > 0. then float_of_int point.Scaling.deliveries_total /. cpu
        else Float.nan
      in
      Printf.printf
        "  e2e list      n=%-3d deliveries=%-8d cpu=%6.2fs  %10.0f msg/s  \
         peak-buf=%d msgs\n%!"
        n point.Scaling.deliveries_total cpu rate
        point.Scaling.peak_node_unstable_msgs;
      Printf.sprintf
        "    { \"impl\": \"list\", \"family\": \"queue\", \"group_size\": %d, \
         \"sim_duration_ms\": %d, \
         \"messages_sent\": %d, \"deliveries\": %d, \
         \"cpu_seconds\": %s, \"deliveries_per_cpu_second\": %s, \
         \"peak_node_unstable_msgs\": %d, \
         \"peak_node_unstable_bytes\": %d, \
         \"system_unstable_bytes\": %d, \
         \"mean_delivery_delay_us\": %s }"
        n
        (Sim_time.to_us duration / 1000)
        point.Scaling.messages_total point.Scaling.deliveries_total
        (json_float cpu) (json_float rate)
        point.Scaling.peak_node_unstable_msgs
        point.Scaling.peak_node_unstable_bytes
        point.Scaling.system_unstable_bytes
        (json_float point.Scaling.mean_delivery_delay_us))
    sizes

(* The causal-implementation family: the same Section 5 workload run with
   BSS vector timestamps, PC-broadcast constant metadata and hybrid
   buffering (PC plus sender-side delivered-knowledge suppression). The
   headline column is mean ordering-metadata bytes per delivery: ~8n for
   bss, flat for pc and hybrid. PC-family runs disseminate over an 8-ary
   spanning tree at every size and track stability through the sparse
   matrix clock — the combination that makes the n = 2048 and n = 4096
   points honest: the dense tracker alone would need ~128 GB at n = 4096
   (n^2 rows of n boxed ints), the sparse one adopts the shared gossip
   snapshots by reference. bss keeps the dense tracker (its committed
   baseline) and stops at n = 1024. Gossip slows down at large n to bound
   the n^2 control volume; per-point [peak_heap_words] records what each
   point actually cost. *)

(* Each causal point runs in a forked child with a fresh major heap: the
   OCaml 5.1 runtime never returns heap chunks to the OS (compaction is a
   no-op), so an in-process [heap_words] reading would report the maximum
   over every point run so far instead of this point's own footprint. The
   child prints its progress line directly (it shares stdout) and ships
   the JSON row back over a pipe. *)
let in_fresh_process f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let row =
      try f ()
      with e ->
        prerr_endline (Printexc.to_string e);
        Stdlib.exit 1
    in
    let oc = Unix.out_channel_of_descr wr in
    output_string oc row;
    flush oc;
    Stdlib.exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let buf = Buffer.create 1024 in
    let chunk = Bytes.create 65536 in
    let rec go () =
      let k = input ic chunk 0 (Bytes.length chunk) in
      if k > 0 then begin
        Buffer.add_subbytes buf chunk 0 k;
        go ()
      end
    in
    go ();
    close_in ic;
    (match snd (Unix.waitpid [] pid) with
     | Unix.WEXITED 0 -> ()
     | _ -> failwith "bench: forked causal point failed");
    Buffer.contents buf
let causal_e2e_section ~engine_impl ~smoke =
  (* smoke stops at n = 256: the bss member stacks alone need ~20 GB at
     n = 1024. The 4..256 span already shows bss metadata growing ~65x
     over flat pc/hybrid. *)
  let sizes_for impl_str =
    if smoke then [ 4; 16; 256 ]
    else if impl_str = "bss" then [ 4; 16; 64; 256; 1024 ]
    else [ 4; 16; 64; 256; 1024; 2048; 4096 ]
  in
  (* no sub-50ms rows: at n >= 1024 a 20 ms horizon cuts the 8-ary tree
     dissemination off mid-propagation, so most of the CPU charged to a
     point was stack setup — the n = 1024 pc/hybrid rows sextuple their
     deliveries-per-cpu-second once the horizon lets the multicasts
     actually land *)
  let duration_for n =
    if n <= 16 then Sim_time.seconds 1
    else if n <= 64 then Sim_time.ms 300
    else if n <= 256 then Sim_time.ms 60
    else Sim_time.ms 50
  in
  let gossip_for n =
    (* at n = 1024 a single full-mesh gossip round enqueues ~1M
       vc-bearing messages at once (~17 GB of transient heap) and dwarfs
       the data traffic; push the period past the run horizon — stability
       still spreads via the timestamps piggybacked on data messages, and
       all implementations get the identical configuration *)
    if n <= 64 then None
    else if n <= 256 then Some (Sim_time.ms 50)
    else Some (Sim_time.ms 500)
  in
  let impls =
    [ (Config.Vector_causal, "bss");
      (Config.Pc_causal, "pc");
      (Config.Hybrid_causal, "hybrid") ]
  in
  List.concat_map
    (fun (causal_impl, impl_str) ->
      let stability_clock, clock_str =
        match causal_impl with
        | Config.Vector_causal -> (Config.Dense_clock, "dense")
        | Config.Pc_causal | Config.Hybrid_causal ->
          (Config.Sparse_clock, "sparse")
      in
      List.map
        (fun n ->
          in_fresh_process @@ fun () ->
          let duration = duration_for n in
          let t0 = Sys.time () in
          let point =
            (* [~metrics:true]: the copy counters and latency histograms
               below come from the per-stack registries (counter bumps and
               bucket increments — cheap enough to leave on for the
               measured rows, and the whole family is regenerated together
               so the baseline comparison stays apples-to-apples) *)
            match
              Scaling.sweep ~sizes:[ n ] ~seed:11L ~duration ~engine_impl
                ?gossip_period:(gossip_for n) ~causal_impl ~stability_clock
                ~pc_overlay:(Config.Pc_tree { fanout = 8 })
                ~track_graph:false ~metrics:true ()
            with
            | [ p ] -> p
            | _ -> assert false
          in
          let cpu = Sys.time () -. t0 in
          (* the child's major heap grew from a fresh start to whatever
             this point forced the runtime to hold — its high-water mark *)
          let heap_words = (Gc.quick_stat ()).Gc.heap_words in
          let rate =
            if cpu > 0. then float_of_int point.Scaling.deliveries_total /. cpu
            else Float.nan
          in
          let mean_header =
            (* normalised by application deliveries, not engine messages:
               at large n the engine count is dominated by n^2 gossip and
               would dilute the per-delivery metadata curve *)
            if point.Scaling.app_deliveries_total > 0 then
              float_of_int point.Scaling.header_bytes_total
              /. float_of_int point.Scaling.app_deliveries_total
            else Float.nan
          in
          Printf.printf
            "  causal %-6s n=%-4d deliveries=%-8d cpu=%6.2fs  %10.0f msg/s  \
             meta/delivery=%6.1f B  peak-buf=%d B  heap=%d MW  \
             fwd=%d supp=%d park=%d drain=%d\n%!"
            impl_str n point.Scaling.deliveries_total cpu rate mean_header
            point.Scaling.peak_node_unstable_bytes
            (heap_words / 1_000_000)
            point.Scaling.forward_copies point.Scaling.suppressed_copies
            point.Scaling.parked_copies point.Scaling.drained_copies;
          Printf.sprintf
            "    { \"impl\": %S, \"family\": \"causal\", \"group_size\": %d, \
             \"stability_clock\": %S, \
             \"sim_duration_ms\": %d, \
             \"messages_sent\": %d, \"deliveries\": %d, \
             \"cpu_seconds\": %s, \"deliveries_per_cpu_second\": %s, \
             \"peak_node_unstable_msgs\": %d, \
             \"peak_node_unstable_bytes\": %d, \
             \"system_unstable_bytes\": %d, \
             \"mean_delivery_delay_us\": %s, \
             \"app_deliveries\": %d, \
             \"header_bytes_total\": %d, \
             \"mean_header_bytes_per_delivery\": %s, \
             \"peak_heap_words\": %d, \
             \"forward_copies\": %d, \"suppressed_copies\": %d, \
             \"parked_copies\": %d, \"drained_copies\": %d, \
             \"delivery_p50_us\": %s, \"delivery_p99_us\": %s, \
             \"delivery_p999_us\": %s, \
             \"stability_lag_p50_us\": %s, \"stability_lag_p99_us\": %s, \
             \"stability_lag_p999_us\": %s }"
            impl_str n clock_str
            (Sim_time.to_us duration / 1000)
            point.Scaling.messages_total point.Scaling.deliveries_total
            (json_float cpu) (json_float rate)
            point.Scaling.peak_node_unstable_msgs
            point.Scaling.peak_node_unstable_bytes
            point.Scaling.system_unstable_bytes
            (json_float point.Scaling.mean_delivery_delay_us)
            point.Scaling.app_deliveries_total
            point.Scaling.header_bytes_total (json_float mean_header)
            heap_words
            point.Scaling.forward_copies point.Scaling.suppressed_copies
            point.Scaling.parked_copies point.Scaling.drained_copies
            (json_float point.Scaling.delivery_p50_us)
            (json_float point.Scaling.delivery_p99_us)
            (json_float point.Scaling.delivery_p999_us)
            (json_float point.Scaling.stability_lag_p50_us)
            (json_float point.Scaling.stability_lag_p99_us)
            (json_float point.Scaling.stability_lag_p999_us))
        (sizes_for impl_str))
    impls

(* The wire family: the Section 5 workload with the [Encoded] wire format
   — every multicast is framed through the length-prefixed codec, so the
   wire-byte columns weigh real encoded frames rather than the structural
   estimates — once without coalescing and once with a 1 ms transport
   batch window. The headline columns are encoded bytes per frame and the
   coalesce ratio (logical frames per physical link send): 1.0 without a
   window, and rising with it as same-link frames share a packet. *)
let wire_e2e_section ~engine_impl ~smoke =
  let sizes = if smoke then [ 4; 16 ] else [ 4; 16; 64 ] in
  let duration_for n =
    if n <= 16 then Sim_time.seconds 1 else Sim_time.ms 300
  in
  let windows = [ (Sim_time.zero, "none"); (Sim_time.ms 1, "1ms") ] in
  List.concat_map
    (fun (batch_window, window_str) ->
      List.map
        (fun n ->
          in_fresh_process @@ fun () ->
          let duration = duration_for n in
          let t0 = Sys.time () in
          let point =
            match
              Scaling.sweep ~sizes:[ n ] ~seed:11L ~duration ~engine_impl
                ~track_graph:false ~metrics:true ~wire_format:Config.Encoded
                ~batch_window ()
            with
            | [ p ] -> p
            | _ -> assert false
          in
          let cpu = Sys.time () -. t0 in
          let rate =
            if cpu > 0. then float_of_int point.Scaling.deliveries_total /. cpu
            else Float.nan
          in
          let per_frame =
            if point.Scaling.wire_packets > 0 then
              float_of_int point.Scaling.encoded_wire_bytes
              /. float_of_int point.Scaling.wire_packets
            else Float.nan
          in
          let coalesce =
            if point.Scaling.link_sends > 0 then
              float_of_int point.Scaling.wire_packets
              /. float_of_int point.Scaling.link_sends
            else Float.nan
          in
          Printf.printf
            "  wire  batch=%-4s n=%-3d deliveries=%-8d cpu=%6.2fs  %10.0f \
             msg/s  %6.1f B/frame  coalesce=%.2f\n%!"
            window_str n point.Scaling.deliveries_total cpu rate per_frame
            coalesce;
          Printf.sprintf
            "    { \"impl\": \"encoded\", \"family\": \"wire\", \
             \"group_size\": %d, \
             \"batch_window\": %S, \"batch_window_us\": %d, \
             \"sim_duration_ms\": %d, \
             \"messages_sent\": %d, \"deliveries\": %d, \
             \"cpu_seconds\": %s, \"deliveries_per_cpu_second\": %s, \
             \"peak_node_unstable_msgs\": %d, \
             \"peak_node_unstable_bytes\": %d, \
             \"mean_delivery_delay_us\": %s, \
             \"encoded_wire_bytes\": %d, \"wire_packets\": %d, \
             \"wire_batches\": %d, \"link_sends\": %d, \
             \"encoded_bytes_per_msg\": %s, \"coalesce_ratio\": %s }"
            n window_str
            (Sim_time.to_us batch_window)
            (Sim_time.to_us duration / 1000)
            point.Scaling.messages_total point.Scaling.deliveries_total
            (json_float cpu) (json_float rate)
            point.Scaling.peak_node_unstable_msgs
            point.Scaling.peak_node_unstable_bytes
            (json_float point.Scaling.mean_delivery_delay_us)
            point.Scaling.encoded_wire_bytes point.Scaling.wire_packets
            (Repro_obs.Registry.counter_total point.Scaling.registry_snapshot
               ~layer:Repro_obs.Event.Transport ~name:"batches")
            point.Scaling.link_sends (json_float per_frame)
            (json_float coalesce))
        sizes)
    windows

(* Telemetry overhead at the end-to-end level: the same n=64 scaling run
   with no log, with an attached-but-disabled log (the production default:
   one load + one branch per would-be event) and with logging enabled. The
   disabled path is gated at [obs_gate_pct]; each variant's throughput is
   the best of [runs] repetitions (min-time, the standard way to damp
   scheduler noise out of a comparison). *)
let obs_gate_pct = 2.0

let obs_section ~smoke =
  (* forked AND ordered before the e2e sections (fork is copy-on-write, so
     a late fork would inherit the bloated post-e2e heap anyway): with the
     comparison run on a major heap inflated by earlier sections, the GC
     tax on the inherited garbage lands unevenly across the variants —
     measured as a fake +4..12% on the disabled path that a small-heap
     process reproducibly puts back under 1% *)
  in_fresh_process @@ fun () ->
  let n = if smoke then 16 else 64 in
  let duration = if smoke then Sim_time.seconds 3 else Sim_time.ms 300 in
  let runs = 7 in
  let deliveries = ref 0 in
  let run_once (make_obs, metrics) =
    let obs = make_obs () in
    let t0 = Sys.time () in
    let point =
      Scaling.measure_with_graph ?obs ~duration ~seed:11L ~track_graph:false
        ~metrics n
    in
    let cpu = Sys.time () -. t0 in
    deliveries := point.Scaling.deliveries_total;
    if cpu > 0. then float_of_int point.Scaling.deliveries_total /. cpu
    else 0.0
  in
  (* The variants are interleaved round-robin (after one discarded
     warm-up) rather than run in sequential blocks: slow drift in machine
     load then hits all variants about equally instead of landing on
     whichever block it overlaps, and best-of-[runs] per variant discards
     the transient slowdowns that remain.

     Every metrics-off variant still executes the registry's scrap-cell
     stores (the cells are unconditionally on the hot path), so the gated
     disabled-path delta covers the metrics-disabled cost as well as the
     disabled log's; the metrics-on variant prices the live counters and
     histograms (informational, not gated). *)
  let variants =
    [|
      ((fun () -> None), false);
      ((fun () -> Some (Obs_log.create ~enabled:false ())), false);
      ((fun () -> Some (Obs_log.create ())), false);
      ((fun () -> None), true);
    |]
  in
  ignore (run_once variants.(0));
  let best = Array.make (Array.length variants) 0.0 in
  for _round = 1 to runs do
    Array.iteri
      (fun i v -> best.(i) <- Float.max best.(i) (run_once v))
      variants
  done;
  let off = best.(0) and disabled = best.(1) and enabled = best.(2) in
  let metrics_on = best.(3) in
  let delta base v = (base -. v) /. base *. 100.0 in
  let disabled_delta = delta off disabled and enabled_delta = delta off enabled in
  let metrics_delta = delta off metrics_on in
  Printf.printf
    "  obs n=%-3d no-log %10.0f msg/s | disabled %10.0f (%+.2f%%) | enabled \
     %10.0f (%+.2f%%) | metrics %10.0f (%+.2f%%)  gate %.1f%%\n%!"
    n off disabled disabled_delta enabled enabled_delta metrics_on
    metrics_delta obs_gate_pct;
  Printf.sprintf
    "    { \"group_size\": %d, \"sim_duration_ms\": %d, \"runs\": %d, \
     \"deliveries\": %d, \"no_log_rate\": %s, \"disabled_rate\": %s, \
     \"enabled_rate\": %s, \"disabled_delta_pct\": %s, \
     \"enabled_delta_pct\": %s, \"metrics_rate\": %s, \
     \"metrics_delta_pct\": %s, \"gate_pct\": %s }"
    n
    (Sim_time.to_us duration / 1000)
    runs !deliveries (json_float off) (json_float disabled)
    (json_float enabled) (json_float disabled_delta) (json_float enabled_delta)
    (json_float metrics_on) (json_float metrics_delta)
    (json_float obs_gate_pct)

let emit_json ~domains ~smoke ~out =
  (* --domains N runs the end-to-end sections on the parallel engine
     (N >= 1 including 1: Parallel {domains = 1} and {domains = 2} produce
     identical simulations, which is what the CI matrix legs compare);
     without the flag the sequential reference engine runs, keeping the
     committed full-mode baseline's numbers comparable across PRs. The obs
     section always runs sequentially — an attached log is group-shared
     state the parallel engine rejects. *)
  let engine_impl =
    match domains with
    | None -> Engine.Sequential
    | Some d -> Engine.Parallel { domains = d }
  in
  Printf.printf "delivery-path benchmark (%s mode, %s engine)\n%!"
    (if smoke then "smoke" else "full")
    (match domains with
     | None -> "sequential"
     | Some d -> Printf.sprintf "parallel d=%d" d);
  (* obs first: its variant comparison needs the pristine small heap (see
     obs_section); the sections that only *read* their own child's heap or
     don't measure memory at all run after *)
  let obs = obs_section ~smoke in
  let micro = micro_section ~smoke @ codec_micro_section ~smoke in
  let e2e =
    e2e_section ~engine_impl ~smoke
    @ causal_e2e_section ~engine_impl ~smoke
    @ wire_e2e_section ~engine_impl ~smoke
  in
  (* a deterministic protocol-metrics snapshot next to the bench document:
     the CI smoke job uploads both as artifacts, so every PR carries a
     browsable registry dump (Prometheus text + JSON) of a known run *)
  let () =
    let point =
      Scaling.measure_with_graph ~duration:(Sim_time.ms 300) ~seed:11L
        ~track_graph:false ~metrics:true 16
    in
    let snap = point.Scaling.registry_snapshot in
    let dir = Filename.dirname out in
    let write name contents =
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Printf.printf "wrote %s (registry fingerprint %s)\n" path
        (Repro_obs.Registry.fingerprint snap)
    in
    write "METRICS_snapshot.prom" (Repro_obs.Registry.to_prometheus snap);
    write "METRICS_snapshot.json" (Repro_obs.Registry.to_json snap)
  in
  let oc = open_out out in
  output_string oc "{\n";
  output_string oc "  \"schema_version\": 1,\n";
  Printf.fprintf oc "  \"mode\": %S,\n" (if smoke then "smoke" else "full");
  Printf.fprintf oc "  \"engine\": %S,\n"
    (match domains with None -> "sequential" | Some _ -> "parallel");
  (match domains with
   | None -> ()
   | Some d -> Printf.fprintf oc "  \"engine_domains\": %d,\n" d);
  output_string oc "  \"micro\": [\n";
  output_string oc (String.concat ",\n" micro);
  output_string oc "\n  ],\n";
  output_string oc "  \"end_to_end\": [\n";
  output_string oc (String.concat ",\n" e2e);
  output_string oc "\n  ],\n";
  output_string oc "  \"obs_overhead\": [\n";
  output_string oc obs;
  output_string oc "\n  ]\n";
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* --validate: the BENCH_delivery.json schema check (used by CI)       *)
(* ------------------------------------------------------------------ *)

(* [fail] exits the process; the [assert false]es keep it monomorphic *)
let load_json ~(fail : string -> unit) file =
  let contents =
    try
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e ->
      fail e;
      assert false
  in
  match Json.of_string contents with
  | Ok j -> j
  | Error e ->
    fail e;
    assert false

let validate ?expect_mode ?baseline file =
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "%s: validation failed: %s\n" file s;
        exit 1)
      fmt
  in
  let doc = load_json ~fail:(fun s -> fail "%s" s) file in
  let get ?(from = doc) key =
    match Json.member key from with
    | Some v -> v
    | None -> fail "missing key %S" key
  in
  let str_field row key =
    match Json.to_str (get ~from:row key) with
    | Some s -> s
    | None -> fail "%S must be a string" key
  in
  let int_field row key =
    match Json.to_int (get ~from:row key) with
    | Some i -> i
    | None -> fail "%S must be an integer" key
  in
  let number_or_null row key =
    match get ~from:row key with
    | Json.Null -> ()
    | v -> if Json.to_float v = None then fail "%S must be a number or null" key
  in
  let rows key =
    match Json.to_list (get key) with
    | Some (_ :: _ as l) -> l
    | Some [] -> fail "%S must be non-empty" key
    | None -> fail "%S must be an array" key
  in
  if Json.to_int (get "schema_version") <> Some 1 then
    fail "schema_version must be 1";
  let mode = match Json.to_str (get "mode") with
    | Some m -> m
    | None -> fail "\"mode\" must be a string"
  in
  (match expect_mode with
   | Some m when m <> mode -> fail "mode is %S, expected %S" mode m
   | Some _ | None -> ());
  (* engine/engine_domains were added with the parallel engine: absent
     from older (sequential) files, and "engine_domains" only appears on
     parallel runs *)
  (match Json.member "engine" doc with
   | Some v ->
     (match Json.to_str v with
      | Some ("sequential" | "parallel") -> ()
      | Some e -> fail "unknown engine %S" e
      | None -> fail "\"engine\" must be a string")
   | None -> ());
  (match Json.member "engine_domains" doc with
   | Some v ->
     (match Json.to_int v with
      | Some d when d >= 1 -> ()
      | Some d -> fail "engine_domains must be >= 1, got %d" d
      | None -> fail "\"engine_domains\" must be an integer")
   | None -> ());
  let micro = rows "micro" in
  List.iter
    (fun row ->
      ignore (str_field row "name");
      ignore (str_field row "impl");
      ignore (int_field row "senders");
      ignore (int_field row "blocked");
      number_or_null row "ns_per_op";
      (* wire-codec rows carry the encoded frame size *)
      match Json.member "bytes_per_msg" row with
      | Some _ -> ignore (int_field row "bytes_per_msg")
      | None -> ())
    micro;
  let e2e = rows "end_to_end" in
  (* Families are distinguished by the "family" field; rows without one
     (pre-causal-family files) are the queue family. *)
  let rates : (string * int, float) Hashtbl.t = Hashtbl.create 16 in
  let peak_bytes : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let header_means : (string, (int * float) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  List.iter
    (fun row ->
      let impl = str_field row "impl" in
      let family =
        match Json.member "family" row with
        | None -> "queue"
        | Some _ -> str_field row "family"
      in
      let size = int_field row "group_size" in
      ignore (int_field row "deliveries");
      number_or_null row "deliveries_per_cpu_second";
      (* sub-half-second runs are scheduler noise, not a throughput
         measurement: keep them out of the baseline regression gate (the
         deterministic peak-bytes gate below covers every row) *)
      (match
         ( Json.to_float (get ~from:row "deliveries_per_cpu_second"),
           Json.to_float (get ~from:row "cpu_seconds") )
       with
      | Some r, Some cpu when cpu >= 0.5 -> Hashtbl.replace rates (impl, size) r
      | _ -> ());
      ignore (int_field row "peak_node_unstable_msgs");
      Hashtbl.replace peak_bytes (impl, size)
        (int_field row "peak_node_unstable_bytes");
      (* registry-derived columns, added with the metrics registry: absent
         from older files, checked when present (causal and wire families) *)
      List.iter
        (fun key ->
          match Json.member key row with
          | Some _ -> ignore (int_field row key)
          | None -> ())
        [ "forward_copies"; "suppressed_copies"; "parked_copies";
          "drained_copies" ];
      List.iter
        (fun key ->
          match Json.member key row with
          | Some _ -> number_or_null row key
          | None -> ())
        [ "delivery_p50_us"; "delivery_p99_us"; "delivery_p999_us";
          "stability_lag_p50_us"; "stability_lag_p99_us";
          "stability_lag_p999_us" ];
      if family = "wire" then begin
        ignore (str_field row "batch_window");
        ignore (int_field row "batch_window_us");
        ignore (int_field row "encoded_wire_bytes");
        ignore (int_field row "wire_packets");
        ignore (int_field row "wire_batches");
        ignore (int_field row "link_sends");
        number_or_null row "encoded_bytes_per_msg";
        number_or_null row "coalesce_ratio";
        (* a physical link event carries at least one logical frame, so the
           coalesce ratio is >= 1; without a batch window it is exactly 1 *)
        match
          ( Json.to_float (get ~from:row "coalesce_ratio"),
            Json.to_int (get ~from:row "batch_window_us") )
        with
        | Some r, Some w ->
          if r < 1.0 -. 1e-9 then
            fail "wire n=%d: coalesce ratio %.3f below 1" size r;
          if w = 0 && Float.abs (r -. 1.0) > 1e-9 then
            fail
              "wire n=%d: coalesce ratio %.3f without a batch window \
               (expected exactly 1)"
              size r
        | _ -> ()
      end;
      if family = "causal" then begin
        ignore (int_field row "app_deliveries");
        ignore (int_field row "header_bytes_total");
        number_or_null row "mean_header_bytes_per_delivery";
        (* added with the hybrid family: absent from older files *)
        (match Json.member "peak_heap_words" row with
         | Some _ -> ignore (int_field row "peak_heap_words")
         | None -> ());
        (match Json.member "stability_clock" row with
         | Some _ -> ignore (str_field row "stability_clock")
         | None -> ());
        match Json.to_float (get ~from:row "mean_header_bytes_per_delivery") with
        | Some m ->
          let l =
            match Hashtbl.find_opt header_means impl with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.add header_means impl l;
              l
          in
          l := (size, m) :: !l
        | None -> ()
      end)
    e2e;
  (* the causal family's headline claim: constant-metadata ordering (pc and
     hybrid alike) stays flat per delivery as the group grows, while bss
     grows linearly with it *)
  let flat_impls = [ "pc"; "hybrid" ] in
  List.iter
    (fun flat_impl ->
      match Hashtbl.find_opt header_means flat_impl with
      | None -> ()
      | Some { contents = means } ->
        let vals = List.map snd means in
        let lo = List.fold_left Float.min Float.infinity vals in
        let hi = List.fold_left Float.max 0.0 vals in
        if List.length vals >= 2 && hi > 1.5 *. lo then
          fail
            "%s metadata per delivery is not flat across group sizes: %.1f \
             .. %.1f B (> 1.5x spread)"
            flat_impl lo hi;
        match Hashtbl.find_opt header_means "bss" with
        | None -> ()
        | Some { contents = bss_means } ->
          let shared =
            List.filter_map
              (fun (n, flat_m) ->
                Option.map (fun bss_m -> (n, bss_m, flat_m))
                  (List.assoc_opt n bss_means))
              means
          in
          (match
             List.fold_left
               (fun acc ((n, _, _) as p) ->
                 match acc with
                 | Some ((n', _, _) as p') -> Some (if n > n' then p else p')
                 | None -> Some p)
               None shared
           with
           | Some (n, bss_m, flat_m) when n >= 64 && bss_m <= flat_m ->
             fail
               "at n=%d bss metadata per delivery (%.1f B) should exceed \
                %s's (%.1f B)"
               n bss_m flat_impl flat_m
           | Some _ | None -> ()))
    flat_impls;
  (* obs_overhead is optional (absent from pre-telemetry files); when
     present, the attached-but-disabled log must cost less than its own
     recorded gate (the <2% zero-allocation-path guarantee) *)
  let obs_rows =
    match Json.member "obs_overhead" doc with
    | None -> []
    | Some l -> (
      match Json.to_list l with
      | Some l -> l
      | None -> fail "\"obs_overhead\" must be an array")
  in
  List.iter
    (fun row ->
      ignore (int_field row "group_size");
      ignore (int_field row "runs");
      ignore (int_field row "deliveries");
      number_or_null row "no_log_rate";
      number_or_null row "enabled_delta_pct";
      (* added with the metrics registry: the live-counters variant's
         throughput delta (informational — only the disabled path is
         gated, and it includes the registry's scrap-cell stores) *)
      (match Json.member "metrics_delta_pct" row with
       | Some _ -> number_or_null row "metrics_delta_pct"
       | None -> ());
      match
        ( Json.to_float (get ~from:row "disabled_delta_pct"),
          Json.to_float (get ~from:row "gate_pct") )
      with
      | Some delta, Some gate ->
        if delta > gate then
          fail
            "telemetry disabled-path overhead %.2f%% exceeds the %.1f%% gate \
             at n=%d"
            delta gate (int_field row "group_size")
      | _ -> fail "obs_overhead deltas must be numbers")
    obs_rows;
  Printf.printf "%s OK: %d micro rows, %d e2e rows, %d obs rows (mode %s)\n"
    file (List.length micro) (List.length e2e) (List.length obs_rows) mode;
  (* --baseline: fail on a >30% throughput regression, or a >30% growth in
     peak per-node unstable-buffer bytes, at any (impl, group size) present
     in both files *)
  match baseline with
  | None -> ()
  | Some bfile ->
    let bfail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "%s: baseline comparison failed: %s\n" bfile s;
          exit 1)
        fmt
    in
    let bdoc = load_json ~fail:(fun s -> bfail "%s" s) bfile in
    let brows =
      match Json.member "end_to_end" bdoc with
      | Some l -> (
        match Json.to_list l with
        | Some l -> l
        | None -> bfail "\"end_to_end\" must be an array")
      | None -> bfail "missing key \"end_to_end\""
    in
    let compared = ref 0 in
    List.iter
      (fun row ->
        match
          ( Option.bind (Json.member "impl" row) Json.to_str,
            Option.bind (Json.member "group_size" row) Json.to_int )
        with
        | Some impl, Some size ->
          (match
             ( Option.bind
                 (Json.member "deliveries_per_cpu_second" row)
                 Json.to_float,
               Option.bind (Json.member "cpu_seconds" row) Json.to_float )
           with
          | Some base_rate, Some base_cpu
            when base_rate > 0. && base_cpu >= 0.5 -> (
            match Hashtbl.find_opt rates (impl, size) with
            | Some fresh when fresh < 0.7 *. base_rate ->
              bfail
                "throughput regression at %s n=%d: %.0f deliveries/cpu-s is \
                 below 70%% of baseline %.0f"
                impl size fresh base_rate
            | Some _ ->
              incr compared
            | None -> ())
          | _ -> ());
          (match
             Option.bind
               (Json.member "peak_node_unstable_bytes" row)
               Json.to_int
           with
          | Some base_bytes when base_bytes > 0 -> (
            match Hashtbl.find_opt peak_bytes (impl, size) with
            | Some fresh
              when float_of_int fresh > 1.3 *. float_of_int base_bytes ->
              bfail
                "buffering regression at %s n=%d: peak unstable bytes %d is \
                 more than 130%% of baseline %d"
                impl size fresh base_bytes
            | Some _ -> incr compared
            | None -> ())
          | Some _ | None -> ())
        | _ -> ())
      brows;
    if !compared = 0 then
      bfail "no (impl, group_size) rows in common with %s" file;
    Printf.printf
      "baseline %s OK: %d shared points within the throughput and buffering \
       gates\n"
      bfile !compared

let () =
  let json = ref false and smoke = ref false and out = ref "BENCH_delivery.json" in
  let validate_file = ref None and expect_mode = ref None in
  let baseline = ref None and domains = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest -> json := true; parse rest
    | "--smoke" :: rest -> json := true; smoke := true; parse rest
    | "--out" :: file :: rest -> out := file; parse rest
    | "--domains" :: d :: rest ->
      (match int_of_string_opt d with
       | Some d when d >= 1 -> domains := Some d
       | Some _ | None ->
         Printf.eprintf "--domains expects a positive integer, got %s\n" d;
         exit 2);
      parse rest
    | "--validate" :: file :: rest -> validate_file := Some file; parse rest
    | "--expect-mode" :: mode :: rest -> expect_mode := Some mode; parse rest
    | "--baseline" :: file :: rest -> baseline := Some file; parse rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s (expected --json [--smoke] [--domains N] \
         [--out FILE] | --validate FILE [--expect-mode MODE] [--baseline \
         FILE])\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !validate_file with
  | Some file -> validate ?expect_mode:!expect_mode ?baseline:!baseline file
  | None ->
    if !json then emit_json ~domains:!domains ~smoke:!smoke ~out:!out
    else begin
      Registry.run_everything Format.std_formatter;
      microbenchmarks ()
    end
