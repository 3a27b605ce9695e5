(* The traced run: the per-layer metrics. It runs the phase untraced
   and then, from a fresh set-up with the same seed, traced; checks that
   tracing changed no simulated-clock figure and no count; and computes
   every layer metric from the traced run's spans and the layer
   replays. *)

open Workload
open Report

(* Sums of every span field by op kind (0 put, 1 get, 2 scan), over all
   calls and over the successful ones, plus the latency samples of the
   successful calls. *)
type agg = {
  calls : int array;  (** by kind *)
  all : int array array;  (** [kind].(field) *)
  ok : int array array;
  put_nostall_ns : Meter.vec;
  put_stall_ns : Meter.vec;
  get_hit_ns : Meter.vec;
  get_miss_ns : Meter.vec;
  mutable stalled_puts : int;
  mutable stalled_put_ns : int;  (** successful stalled puts *)
  mutable stalled_merge_bytes : int;  (** written during them, WAL excluded *)
}

let aggregate sp =
  let sums () = Array.init 3 (fun _ -> Array.make Spans.width 0) in
  let a =
    {
      calls = Array.make 3 0;
      all = sums ();
      ok = sums ();
      put_nostall_ns = Meter.vec ();
      put_stall_ns = Meter.vec ();
      get_hit_ns = Meter.vec ();
      get_miss_ns = Meter.vec ();
      stalled_puts = 0;
      stalled_put_ns = 0;
      stalled_merge_bytes = 0;
    }
  in
  Spans.iter sp (fun s ->
      let f i = s.(i) in
      let k = f Spans.kind land (Spans.failed_flag - 1) and ok = f Spans.kind < Spans.failed_flag in
      a.calls.(k) <- a.calls.(k) + 1;
      Array.iteri
        (fun i v ->
          a.all.(k).(i) <- a.all.(k).(i) + v;
          if ok then a.ok.(k).(i) <- a.ok.(k).(i) + v)
        s;
      let stalled = k = 0 && f Spans.stall_ns > 0 in
      if stalled then a.stalled_puts <- a.stalled_puts + 1;
      if ok then begin
        let dur = float_of_int (f Spans.dur_ns) in
        match k with
        | 0 when stalled ->
            Meter.push a.put_stall_ns dur;
            a.stalled_put_ns <- a.stalled_put_ns + f Spans.dur_ns;
            a.stalled_merge_bytes <- a.stalled_merge_bytes + f Spans.write_bytes - f Spans.wal_bytes
        | 0 -> Meter.push a.put_nostall_ns dur
        | 1 -> Meter.push (if f Spans.pool_misses = 0 then a.get_hit_ns else a.get_miss_ns) dur
        | _ -> ()
      end);
  a

let total a f = a.all.(0).(f) + a.all.(1).(f) + a.all.(2).(f)

(* A metric with no samples on this workload is left out. *)
let per name unit_ num den = if den > 0 then emit name unit_ (float_of_int num /. float_of_int den)
let share name num den = if den > 0 then emit name "ratio" (float_of_int num /. float_of_int den)
let med_us name v = if v.Meter.len > 0 then emit name "us" (Meter.median v /. 1000.0)

let disk_records tree =
  List.fold_left
    (fun n (l : Blsm.Tree.level_info) -> if String.equal l.level "C0" then n else n + l.records)
    0 (Blsm.Tree.levels tree)

let emit_layers (a : agg) (scan : agg) (rp : Replay.t) ~tree ~acked_user_bytes
    ~major_collections ~overhead =
  let puts = a.calls.(0) and gets = a.calls.(1) and ops = Array.fold_left ( + ) 0 a.calls in
  let put f = a.all.(0).(f) and get f = a.all.(1).(f) in
  let get_pages = get Spans.pool_hits + get Spans.pool_misses in
  let scan_rows = scan.ok.(2).(Spans.rows) in
  let put_nostall = Meter.median a.put_nostall_ns in
  let us_per name ns n = if n > 0 then emit name "us" (float_of_int ns /. 1000.0 /. float_of_int n) in
  (* tree *)
  med_us "tree.put_nostall_wall_us" a.put_nostall_ns;
  med_us "tree.put_stall_wall_us" a.put_stall_ns;
  med_us "tree.get_poolhit_wall_us" a.get_hit_ns;
  med_us "tree.get_poolmiss_wall_us" a.get_miss_ns;
  us_per "tree.scan_wall_us_per_row" scan.ok.(2).(Spans.dur_ns) scan_rows;
  (* A put without a stall is one memtable write and one WAL append. A
     get is one memtable probe, a Bloom probe per component consulted
     (negatives plus pages read), a page search per page read and a CRC
     per page loaded; weighted by what the traced gets did, over their
     mean wall time. *)
  if a.put_nostall_ns.len > 0 then
    emit "tree.put_explained_share" "ratio" ((rp.Replay.memtable_write_ns +. rp.wal_append_ns) /. put_nostall);
  let ok_gets = a.get_hit_ns.len + a.get_miss_ns.len in
  if ok_gets > 0 then begin
    let per_get n = float_of_int n /. float_of_int gets in
    let model =
      rp.memtable_get_ns
      +. (per_get (get Spans.bloom_negatives + get_pages) *. rp.bloom_mem_ns)
      +. (per_get get_pages *. rp.sstable_get_ns)
      +. (per_get (get Spans.pool_misses) *. rp.crc_page_ns)
    in
    emit "tree.get_explained_share" "ratio"
      (model /. (float_of_int a.ok.(1).(Spans.dur_ns) /. float_of_int ok_gets))
  end;
  (* scheduler *)
  share "scheduler.stalled_write_share" a.stalled_puts puts;
  us_per "scheduler.stall_sim_us_per_write" (put Spans.stall_ns) puts;
  if puts > 0 then begin
    let sh name f = emit name "ratio" (ratio (put f) (put Spans.stall_ns)) in
    sh "scheduler.merge1_share" Spans.stall_merge1_ns;
    sh "scheduler.merge2_share" Spans.stall_merge2_ns;
    sh "scheduler.hard_share" Spans.stall_hard_ns;
    emit "scheduler.hard_stalls" "count" (float_of_int (put Spans.hard_stalls))
  end;
  (* merge *)
  share "merge.bytes_per_user_byte" (total a Spans.write_bytes - total a Spans.wal_bytes) acked_user_bytes;
  emit "merge.merge1_completions" "count" (float_of_int (total a Spans.merge1_completions));
  emit "merge.merge2_completions" "count" (float_of_int (total a Spans.merge2_completions));
  emit "merge.promotions" "count" (float_of_int (total a Spans.promotions));
  if a.stalled_merge_bytes > 0 && a.put_nostall_ns.len > 0 then
    emit "merge.wall_ns_per_byte" "ns"
      ((float_of_int a.stalled_put_ns -. (float_of_int a.put_stall_ns.len *. put_nostall))
      /. float_of_int a.stalled_merge_bytes);
  emit "merge.builder_add_wall_ns" "ns" rp.builder_add_ns;
  emit "merge.iter_next_wall_ns" "ns" rp.iter_next_ns;
  (* wal *)
  share "wal.bytes_per_user_byte" (total a Spans.wal_bytes) acked_user_bytes;
  share "wal.sim_share_of_write" (put Spans.wal_sim_ns) (put Spans.sim_ns);
  emit "wal.append_wall_ns" "ns" rp.wal_append_ns;
  (* memtable *)
  emit "memtable.write_wall_ns" "ns" rp.memtable_write_ns;
  emit "memtable.get_wall_ns" "ns" rp.memtable_get_ns;
  (* bloom *)
  per "bloom.negatives_per_get" "count" (get Spans.bloom_negatives) gets;
  per "bloom.false_positives_per_get" "count" (get Spans.bloom_false_positives) gets;
  per "bloom.bytes_per_key" "B" (Blsm.Tree.bloom_bytes tree) (disk_records tree);
  emit "bloom.mem_wall_ns" "ns" rp.bloom_mem_ns;
  (* sstable *)
  per "sstable.pages_per_get" "count" get_pages gets;
  if scan_rows > 0 then
    emit "sstable.pages_per_scan_row" "count"
      (float_of_int scan.ok.(2).(Spans.read_bytes) /. float_of_int page_size /. float_of_int scan_rows);
  emit "sstable.get_wall_ns" "ns" rp.sstable_get_ns;
  (* buffer *)
  share "buffer.hit_rate" (total a Spans.pool_hits) (total a Spans.pool_hits + total a Spans.pool_misses);
  per "buffer.misses_per_get" "count" (get Spans.pool_misses) gets;
  per "buffer.evictions_per_op" "count" (total a Spans.evictions) ops;
  emit "buffer.crc_page_wall_ns" "ns" rp.crc_page_ns;
  (* simdisk *)
  per "simdisk.seeks_per_get" "count" (get Spans.seeks) gets;
  per "simdisk.read_bytes_per_op" "B" (total a Spans.read_bytes) ops;
  per "simdisk.write_bytes_per_op" "B" (total a Spans.write_bytes) ops;
  us_per "simdisk.sim_us_per_op" (total a Spans.sim_ns) ops;
  (* gc *)
  per "gc.words_per_put" "words" (put Spans.minor_words) puts;
  per "gc.words_per_get" "words" (get Spans.minor_words) gets;
  per "gc.words_per_scan_row" "words" scan.ok.(2).(Spans.minor_words) scan_rows;
  emit "gc.major_collections" "count" (float_of_int major_collections);
  if Float.is_finite overhead then emit "trace.overhead_share" "ratio" overhead

let scan_probe_ops = 1000

(* Per elapsed second of the phase, so the probes, span encoding and
   everything else tracing adds between the engine calls count; at the
   nominal host speed over the phase (see Meter), so a change in the
   host's speed between the two phases does not show as overhead. *)
let goodput (r : Phase.result) =
  let reference_ns =
    float_of_int (List.fold_left (fun n m -> n + m.Phase.at_reference_ns) 0 r.marks)
    /. float_of_int (List.length r.marks)
  in
  float_of_int r.ok /. float_of_int r.elapsed_ns *. Meter.slowdown ~reference_ns

(* Set up, warm up untraced, then run the measured phase. *)
let setup_and_run ?spans spec vals ~seed ~seconds =
  let s = setup spec vals in
  let st = stream spec ~seed in
  let warm = Phase.run s.tree st s.oracle ~ops:(warmup_ops spec ~seconds) in
  (s, warm, Phase.run ?spans s.tree st s.oracle ~ops:(phase_ops spec ~seconds))

let traced spec ~seed ~seconds ~out_dir =
  let vals = values ~seed ~value_bytes:spec.value_bytes in
  let base_correct, untraced =
    let base, _, untraced = setup_and_run spec vals ~seed ~seconds in
    (base.oracle.wrong = 0 && base.oracle.lost = 0, untraced)
  in
  Gc.compact ();
  let sp = Spans.create () in
  let s, warm, r = setup_and_run ~spans:sp spec vals ~seed ~seconds in
  List.iter2
    (fun (k, a) (_, b) -> if not (String.equal a b) then die "tracing changed %s: %s untraced, %s traced" k a b)
    (Phase.det untraced) (Phase.det r);
  let a = aggregate sp in
  (* per-row scan figures come from the phase's scans, or, when the mix
     has none, from a probe of scans drawn as the workload draws keys *)
  let scan =
    if a.calls.(2) > 0 then a
    else begin
      let probe = Spans.create () in
      let st = stream { spec with put_pct = 0; get_pct = 0 } ~seed:(seed + 2) in
      ignore (Phase.run ~spans:probe s.tree st s.oracle ~ops:scan_probe_ops);
      aggregate probe
    end
  in
  let rp = Replay.run spec vals ~seed in
  emit_layers a scan rp ~tree:s.tree ~acked_user_bytes:r.acked_user_bytes
    ~major_collections:r.major_collections ~overhead:(1.0 -. (goodput r /. goodput untraced));
  Spans.write sp (Filename.concat out_dir (spec.name ^ ".spans"));
  print_result
    ~correct:(base_correct && s.oracle.wrong = 0 && s.oracle.lost = 0)
    ~attempted:(warm.ops + r.ops) ~failed:(Phase.failed warm + Phase.failed r)
