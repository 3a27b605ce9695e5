(* The bLSM benchmark: one process, one thread, one closed-loop
   client against Blsm.Tree. See NOTES.md for the workloads, the metric
   definitions and the rules they follow.

     blsm_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--out-dir DIR]

   Prints report lines, then "det NAME VALUE" lines (the figures that
   must repeat exactly for a seed), then one JSON result line. *)

open Workload
open Report
module Tree = Blsm.Tree

let setups = 5

let live_user_bytes spec = records * (String.length keys.(0) + spec.value_bytes)

(* Each wall-clock figure is the median over the phase's sub-phases of
   the sub-phase's figure at the nominal host speed (see Meter). Goodput
   is gated; the wall percentiles are printed only (see NOTES.md). *)
let emit_wall (r : Phase.result) =
  let sub = Phase.subphase_samples r in
  let raw = median (List.map (fun s -> s.Phase.goodput) sub) in
  let nominal =
    median (List.map (fun s -> s.Phase.goodput *. Meter.slowdown ~reference_ns:s.Phase.reference_ns) sub)
  in
  Printf.printf "wall goodput_ops_s = %.0f ops/s at nominal host speed (raw %.0f; median of %d sub-phases)\n"
    nominal raw (List.length sub);
  emit "goodput_ops_s" "ops/s" nominal;
  let scaled f = List.map (fun s -> (f s, 1.0 /. Meter.slowdown ~reference_ns:s.Phase.reference_ns)) sub in
  let puts = scaled (fun s -> s.Phase.puts) and reads = scaled (fun s -> s.Phase.reads) in
  List.iter
    (fun (name, sets, p) -> print_pct name "us" sets p)
    [
      ("write_wall_us_p50", puts, 0.50);
      ("write_wall_us_p99", puts, 0.99);
      ("read_wall_us_p50", reads, 0.50);
      ("read_wall_us_p99", reads, 0.99);
    ]

let emit_phase spec (r : Phase.result) =
  let d = Simdisk.Disk.diff r.before.disk r.after.disk in
  emit "sim_ops_s" "ops/s" (float_of_int r.ops /. (r.sim_us /. 1e6));
  print_pct "sim_write_us_p999" "us" [ (r.put_sim_us, 1.0) ] 0.999;
  print_pct "sim_read_us_p999" "us" [ (r.read_sim_us, 1.0) ] 0.999;
  emit_tail "sim_write_us_top5pct_mean" "us" r.put_sim_us;
  emit_tail "sim_read_us_top5pct_mean" "us" r.read_sim_us;
  if r.acked_user_bytes > 0 then
    emit "write_amp" "ratio" (ratio (Phase.write_bytes d) r.acked_user_bytes);
  emit "space_amp" "ratio" (Phase.mean_stored_bytes r /. float_of_int (live_user_bytes spec));
  emit "alloc_words_per_op" "words" (r.minor_words /. float_of_int r.ops)

(* {1 Crash, recovery and read-back} *)

(* Crash and recover, then read every key back from the recovered
   tree. Returns the recovery's wall seconds (if it succeeded) and the
   failed read-backs. *)
let recover_and_read_back tree (o : oracle) =
  (* earlier garbage is not recovery's cost *)
  Gc.full_major ();
  let t0 = Meter.now_ns () in
  let recovered, seconds =
    match Tree.crash_and_recover tree with
    | tree -> (Some tree, Some (float_of_int (Meter.now_ns () - t0) /. 1e9))
    | exception e when Phase.typed_failure e -> (None, None)
  in
  let failed = ref 0 in
  for id = 0 to records - 1 do
    let ok =
      match recovered with
      | None -> false
      | Some tree -> (
          match Tree.get tree keys.(id) with
          | got -> check o id got
          | exception e when Phase.typed_failure e -> false)
    in
    if not ok then incr failed
  done;
  (seconds, !failed)

(* {1 The end-to-end run} *)

(* One timed set-up: its raw seconds and its seconds at the nominal host
   speed, summed over its stages, each scaled by the reference job
   timed at its two ends. *)
let timed_setup spec vals =
  let raw = ref 0.0 and nominal = ref 0.0 in
  let last_reference = ref (Meter.reference_ns ()) in
  let stage f =
    let t0 = Meter.now_ns () in
    f ();
    let dt = float_of_int (Meter.now_ns () - t0) /. 1e9 in
    let r1 = Meter.reference_ns () in
    raw := !raw +. dt;
    nominal := !nominal +. (dt /. Meter.slowdown ~reference_ns:(float_of_int (!last_reference + r1) /. 2.0));
    last_reference := r1
  in
  let s = setup ~stage spec vals in
  (s, (!raw, !nominal))

(* [setups] set-ups are timed; the phase runs on the last. *)
let timed_setups spec vals =
  let rec go timings i =
    Gc.compact ();
    let s, t = timed_setup spec vals in
    if i = setups then (s, t :: timings) else go (t :: timings) (i + 1)
  in
  go [] 1

let untraced spec ~seed ~seconds =
  let vals = values ~seed ~value_bytes:spec.value_bytes in
  let s, setup_timings = timed_setups spec vals in
  let stream = stream spec ~seed in
  let warm = Phase.run s.tree stream s.oracle ~ops:(warmup_ops spec ~seconds) in
  let r = Phase.run s.tree stream s.oracle ~ops:(phase_ops spec ~seconds) in
  (* measured before recovery, which replaces the tree *)
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let setup_s = median (List.map snd setup_timings) in
  Printf.printf "setup_s = %.4f s at nominal host speed (raw %.4f s; median of %d set-ups)\n" setup_s
    (median (List.map fst setup_timings)) setups;
  emit "setup_s" "s" setup_s;
  emit_wall r;
  emit_phase spec r;
  emit "heap_peak_mb" "MiB" heap_peak_mb;
  let recover_s, readback_failed = recover_and_read_back s.tree s.oracle in
  (* Not gated: the log it replays, and so its work, depends on where in
     its C0 cycle the phase happens to end. *)
  Option.iter (Printf.printf "recover_s = %.4f s\n") recover_s;
  let attempted = warm.ops + r.ops + records in
  let failed = Phase.failed warm + Phase.failed r + readback_failed in
  Printf.printf
    "fail_share = %d / %d (warm-up %d of %d, phase %d of %d, read-back %d of %d; wrong %d, lost %d)\n"
    failed attempted (Phase.failed warm) warm.ops (Phase.failed r) r.ops readback_failed records
    s.oracle.wrong s.oracle.lost;
  det "op_stream_digest" "%d" stream.digest;
  List.iter (fun (k, v) -> det k "%s" v) (Phase.det r);
  det "alloc_words_per_op" "%.6f" (r.minor_words /. float_of_int r.ops);
  det "fail_share" "%.9f" (ratio failed attempted);
  print_result ~correct:(s.oracle.wrong = 0 && s.oracle.lost = 0) ~attempted ~failed

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out_dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME rewrite | cached_read | mixed_uncached");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S phase length: S times the workload's nominal op rate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--out-dir", Arg.Set_string out_dir, "DIR for a traced run's spans");
    ]
    (fun a -> die "unexpected argument %s" a)
    "blsm_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec = match find !workload with Some s -> s | None -> die "unknown workload %S" !workload in
  if !seconds < 1 then die "--seconds must be at least 1";
  match !trace with
  | 0 -> untraced spec ~seed:!seed ~seconds:!seconds
  | 1 ->
      if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
      Layers.traced spec ~seed:!seed ~seconds:!seconds ~out_dir:!out_dir
  | _ -> die "--trace must be 0 or 1"
