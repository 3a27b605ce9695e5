(* One measured phase: a closed loop with one client. Each op is drawn
   and its value built before the clock starts, and its answer is
   checked against the oracle after the clock stops; only the call into
   the engine's public function is timed. *)

open Workload
module Tree = Blsm.Tree
module Disk = Simdisk.Disk
module Bm = Pagestore.Buffer_manager

let typed_failure = function
  | Tree.Corruption _ | Tree.Write_fenced | Pagestore.Wal.Corrupt _
  | Sstable.Sst_format.Corrupt _ | Simdisk.Faults.Crash_point _ ->
      true
  | _ -> false

(* A failed op enters every latency histogram at these ceilings, above
   any observed latency, and never counts toward goodput: a fix that
   turns failures into successes can only lower the percentiles. *)
let ceiling_wall_us = 1e6
let ceiling_sim_us = 1e6

(* Engine counters, read around the phase and, when traced, around
   every call. *)
type probe = {
  disk : Disk.snapshot;
  hits : int;
  misses : int;
  evictions : int;
  wal_bytes : int;
  bloom_neg : int;
  bloom_fp : int;
  merge1 : int;
  merge2 : int;
  promotions : int;
  hard : int;
}

let probe tree =
  let store = Tree.store tree in
  let buf = Pagestore.Store.buffer store in
  let st = Tree.stats tree in
  {
    disk = Disk.snapshot (Tree.disk tree);
    hits = Bm.hits buf;
    misses = Bm.misses buf;
    evictions = Bm.evictions buf;
    wal_bytes = Pagestore.Wal.appended_bytes (Pagestore.Store.wal store);
    bloom_neg = Tree.bloom_negative_total tree;
    bloom_fp = Tree.bloom_false_positive_total tree;
    merge1 = st.Tree.merge1_completions;
    merge2 = st.Tree.merge2_completions;
    promotions = st.Tree.promotions;
    hard = st.Tree.hard_stalls;
  }

let read_bytes (d : Disk.snapshot) = d.seq_read_bytes + d.random_read_bytes
let write_bytes (d : Disk.snapshot) = d.seq_write_bytes + d.random_write_bytes

(* The running totals at a sub-phase boundary. The wall-clock metrics
   are medians over [subphases] equal slices of the phase, so a burst
   of contention on the host moves a few slices, not the figure. *)
type mark = {
  at_ops : int;
  at_ok : int;
  at_wall_ns : int;
  at_puts : int;  (** samples in the put vectors so far *)
  at_reads : int;
  at_stored_bytes : int;  (** Store.stored_bytes *)
  at_reference_ns : int;  (** Meter.reference_ns, timed at the boundary *)
}

let subphases = 24

type result = {
  put_wall_us : Meter.vec;
  put_sim_us : Meter.vec;
  read_wall_us : Meter.vec;  (** gets and scans *)
  read_sim_us : Meter.vec;
  mutable ops : int;
  mutable ok : int;
  mutable puts : int;
  mutable gets : int;
  mutable scans : int;
  mutable wall_ns : int;  (** summed over the timed calls *)
  mutable elapsed_ns : int;
      (** first call to last, the harness's own work included, the
          reference job at the sub-phase boundaries excluded *)
  mutable resumed_ns : int;  (** when the phase last resumed after a boundary *)
  mutable minor_words : float;  (** allocated inside the timed calls *)
  mutable acked_user_bytes : int;
  mutable sim_us : float;
  before : probe;
  mutable after : probe;
  mutable major_collections : int;
  mutable marks : mark list;  (** newest first *)
  scratch : Float.Array.t;  (** sim_us and minor words at call start *)
  mutable last_dur_ns : int;
  mutable last_sim_us : float;
  mutable last_words : float;
}

let result before =
  {
    put_wall_us = Meter.vec ();
    put_sim_us = Meter.vec ();
    read_wall_us = Meter.vec ();
    read_sim_us = Meter.vec ();
    ops = 0;
    ok = 0;
    puts = 0;
    gets = 0;
    scans = 0;
    wall_ns = 0;
    elapsed_ns = 0;
    resumed_ns = 0;
    minor_words = 0.0;
    acked_user_bytes = 0;
    sim_us = 0.0;
    before;
    after = before;
    major_collections = 0;
    scratch = Float.Array.make 2 0.0;
    last_dur_ns = 0;
    last_sim_us = 0.0;
    last_words = 0.0;
    marks = [];
  }

let mark r tree =
  r.elapsed_ns <- r.elapsed_ns + (Meter.now_ns () - r.resumed_ns);
  r.marks <-
    {
      at_ops = r.ops;
      at_ok = r.ok;
      at_wall_ns = r.wall_ns;
      at_puts = r.put_wall_us.len;
      at_reads = r.read_wall_us.len;
      at_stored_bytes = Pagestore.Store.stored_bytes (Tree.store tree);
      at_reference_ns = Meter.reference_ns ();
    }
    :: r.marks

let failed r = r.ops - r.ok

(* Stored bytes averaged over the sub-phase boundaries: where in its
   merge cycle the phase happens to end does not move it. *)
let mean_stored_bytes r =
  float_of_int (List.fold_left (fun n m -> n + m.at_stored_bytes) 0 r.marks)
  /. float_of_int (List.length r.marks)

(* [start] and [stop] bracket one engine call; nothing between the two
   [Gc.minor_words] reads allocates except the engine. *)
let start r disk =
  Float.Array.unsafe_set r.scratch 0 (Disk.now_us disk);
  Float.Array.unsafe_set r.scratch 1 (Gc.minor_words ());
  Meter.now_ns ()

let stop r disk t0 =
  let t1 = Meter.now_ns () in
  let w1 = Gc.minor_words () in
  r.last_dur_ns <- t1 - t0;
  r.last_words <- w1 -. Float.Array.unsafe_get r.scratch 1;
  r.last_sim_us <- Disk.now_us disk -. Float.Array.unsafe_get r.scratch 0

let record r ~write ~ok =
  r.ops <- r.ops + 1;
  r.wall_ns <- r.wall_ns + r.last_dur_ns;
  r.minor_words <- r.minor_words +. r.last_words;
  let wall_us = if ok then float_of_int r.last_dur_ns /. 1000.0 else ceiling_wall_us in
  let sim_us = if ok then r.last_sim_us else ceiling_sim_us in
  if ok then r.ok <- r.ok + 1;
  if write then begin
    Meter.push r.put_wall_us wall_us;
    Meter.push r.put_sim_us sim_us
  end
  else begin
    Meter.push r.read_wall_us wall_us;
    Meter.push r.read_sim_us sim_us
  end

let ns_of_us us = int_of_float (Float.round (us *. 1000.0))

(* Fill and commit one span from the counters around the call. *)
let span sp r ~phase_t0 ~t0 ~kind ~ok ~rows tree (p0 : probe) =
  let p1 = probe tree in
  let d = Disk.diff p0.disk p1.disk in
  let row = sp.Spans.row in
  let set i v = row.(i) <- v in
  set Spans.kind (if ok then kind else kind + Spans.failed_flag);
  set Spans.start_ns (t0 - phase_t0);
  set Spans.dur_ns r.last_dur_ns;
  set Spans.sim_ns (ns_of_us r.last_sim_us);
  set Spans.minor_words (int_of_float r.last_words);
  set Spans.seeks d.seeks;
  set Spans.read_bytes (read_bytes d);
  set Spans.write_bytes (write_bytes d);
  set Spans.wal_bytes (p1.wal_bytes - p0.wal_bytes);
  set Spans.pool_hits (p1.hits - p0.hits);
  set Spans.pool_misses (p1.misses - p0.misses);
  set Spans.evictions (p1.evictions - p0.evictions);
  let sb =
    if kind = 0 then Tree.last_stall tree
    else { Tree.sb_merge1_us = 0.; sb_merge2_us = 0.; sb_hard_us = 0.; sb_wal_us = 0.; sb_total_us = 0. }
  in
  set Spans.stall_ns (ns_of_us sb.sb_total_us);
  set Spans.stall_merge1_ns (ns_of_us sb.sb_merge1_us);
  set Spans.stall_merge2_ns (ns_of_us sb.sb_merge2_us);
  set Spans.stall_hard_ns (ns_of_us sb.sb_hard_us);
  set Spans.wal_sim_ns (ns_of_us sb.sb_wal_us);
  set Spans.bloom_negatives (p1.bloom_neg - p0.bloom_neg);
  set Spans.bloom_false_positives (p1.bloom_fp - p0.bloom_fp);
  set Spans.rows rows;
  set Spans.merge1_completions (p1.merge1 - p0.merge1);
  set Spans.merge2_completions (p1.merge2 - p0.merge2);
  set Spans.promotions (p1.promotions - p0.promotions);
  set Spans.hard_stalls (p1.hard - p0.hard);
  Spans.commit sp

(* The phase figures that depend on the seed alone: the simulated clock
   and the counts. The traced run must reproduce every one of them. *)
let det (r : result) =
  let d = Simdisk.Disk.diff r.before.disk r.after.disk in
  let pct v p = if v.Meter.len = 0 then nan else (Meter.percentile v p).value in
  let tail v = if v.Meter.len = 0 then nan else fst (Meter.tail_mean v Report.tail_share) in
  [
    ("ops", string_of_int r.ops);
    ("ok", string_of_int r.ok);
    ("puts", string_of_int r.puts);
    ("gets", string_of_int r.gets);
    ("scans", string_of_int r.scans);
    ("sim_us", Printf.sprintf "%.6f" r.sim_us);
    ("sim_write_us_p999", Printf.sprintf "%.6f" (pct r.put_sim_us 0.999));
    ("sim_read_us_p999", Printf.sprintf "%.6f" (pct r.read_sim_us 0.999));
    ("sim_write_us_top5pct_mean", Printf.sprintf "%.6f" (tail r.put_sim_us));
    ("sim_read_us_top5pct_mean", Printf.sprintf "%.6f" (tail r.read_sim_us));
    ("acked_user_bytes", string_of_int r.acked_user_bytes);
    ("mean_stored_bytes", Printf.sprintf "%.3f" (mean_stored_bytes r));
    ("seeks", string_of_int d.seeks);
    ("read_bytes", string_of_int (read_bytes d));
    ("write_bytes", string_of_int (write_bytes d));
    ("wal_bytes", string_of_int (r.after.wal_bytes - r.before.wal_bytes));
    ("pool_hits", string_of_int (r.after.hits - r.before.hits));
    ("pool_misses", string_of_int (r.after.misses - r.before.misses));
    ("evictions", string_of_int (r.after.evictions - r.before.evictions));
    ("bloom_negatives", string_of_int (r.after.bloom_neg - r.before.bloom_neg));
    ("bloom_false_positives", string_of_int (r.after.bloom_fp - r.before.bloom_fp));
    ("merge1_completions", string_of_int (r.after.merge1 - r.before.merge1));
    ("merge2_completions", string_of_int (r.after.merge2 - r.before.merge2));
    ("promotions", string_of_int (r.after.promotions - r.before.promotions));
    ("hard_stalls", string_of_int (r.after.hard - r.before.hard));
  ]

(* [run ?spans tree stream oracle ~ops] runs [ops] operations; with
   [spans] it also records one span per call. *)
let run ?spans tree stream (o : oracle) ~ops =
  let r = result (probe tree) in
  let disk = Tree.disk tree in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let sim0 = Disk.now_us disk in
  let phase_t0 = Meter.now_ns () in
  r.resumed_ns <- phase_t0;
  for i = 0 to ops - 1 do
    if i * subphases mod ops < subphases then begin
      mark r tree;
      r.resumed_ns <- Meter.now_ns ()
    end;
    let p0 = Option.map (fun _ -> probe tree) spans in
    let traced ~kind ~t0 ~ok ~rows =
      match (spans, p0) with
      | Some sp, Some p0 -> span sp r ~phase_t0 ~t0 ~kind ~ok ~rows tree p0
      | _ -> ()
    in
    match next stream with
    | Put id ->
        r.puts <- r.puts + 1;
        let key = keys.(id) in
        let ver = next_version o id in
        let v = value o.vals id ver in
        let t0 = start r disk in
        let ok =
          match Tree.put tree key v with
          | () ->
              stop r disk t0;
              ack o id ver;
              r.acked_user_bytes <- r.acked_user_bytes + String.length key + String.length v;
              true
          | exception e when typed_failure e ->
              stop r disk t0;
              nack o id ver;
              false
        in
        record r ~write:true ~ok;
        traced ~kind:0 ~t0 ~ok ~rows:0
    | Get id ->
        r.gets <- r.gets + 1;
        let key = keys.(id) in
        let t0 = start r disk in
        let ok =
          match Tree.get tree key with
          | got ->
              stop r disk t0;
              check o id got
          | exception e when typed_failure e ->
              stop r disk t0;
              false
        in
        record r ~write:false ~ok;
        traced ~kind:1 ~t0 ~ok ~rows:0
    | Scan (id, n) ->
        r.scans <- r.scans + 1;
        let key = keys.(id) in
        let t0 = start r disk in
        let ok, rows =
          match Tree.scan tree key n with
          | got ->
              stop r disk t0;
              (check_scan o id n got, List.length got)
          | exception e when typed_failure e ->
              stop r disk t0;
              (false, 0)
        in
        record r ~write:false ~ok;
        traced ~kind:2 ~t0 ~ok ~rows
  done;
  mark r tree;
  r.sim_us <- Disk.now_us disk -. sim0;
  r.after <- probe tree;
  r.major_collections <- (Gc.quick_stat ()).Gc.major_collections - gc0;
  r

type subphase = {
  goodput : float;
  puts : Meter.vec;  (** wall us *)
  reads : Meter.vec;
  reference_ns : float;  (** mean of the reference timings at its two ends *)
}

let subphase_samples r =
  let ms = Array.of_list (List.rev r.marks) in
  List.init (Array.length ms - 1) (fun k ->
      let a = ms.(k) and b = ms.(k + 1) in
      {
        goodput = float_of_int (b.at_ok - a.at_ok) /. (float_of_int (b.at_wall_ns - a.at_wall_ns) /. 1e9);
        puts = Meter.slice r.put_wall_us a.at_puts b.at_puts;
        reads = Meter.slice r.read_wall_us a.at_reads b.at_reads;
        reference_ns = float_of_int (a.at_reference_ns + b.at_reference_ns) /. 2.0;
      })
