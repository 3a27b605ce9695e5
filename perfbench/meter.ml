(* Clock and sample storage. *)

(* CLOCK_MONOTONIC in ns, unboxed and allocation-free: reading it between
   two [Gc.minor_words] probes adds nothing to the engine's count.
   [gettimeofday]'s 1 us step would quantise ~1 us pool-hit gets. The
   stub ships with bechamel.monotonic_clock. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@lint.allow "D001"] now_ns () = Int64.to_int (clock_ns ())

(* A growable float vector. Its storage is a Bigarray, allocated outside
   the OCaml heap, so millions of latency samples do not enter
   [Gc.top_heap_words] and [heap_peak_mb] measures the engine. *)
type store = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type vec = { mutable data : store; mutable len : int }

let alloc n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let vec () = { data = alloc 1024; len = 0 }

let push v x =
  if v.len = Bigarray.Array1.dim v.data then begin
    let bigger = alloc (2 * v.len) in
    Bigarray.Array1.blit v.data (Bigarray.Array1.sub bigger 0 v.len);
    v.data <- bigger
  end;
  Bigarray.Array1.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let slice v lo hi = { data = Bigarray.Array1.sub v.data lo (hi - lo); len = hi - lo }

let sorted v =
  let a = Float.Array.init v.len (Bigarray.Array1.unsafe_get v.data) in
  Float.Array.sort Float.compare a;
  a

(* A nearest-rank percentile with the samples that lie beyond it; the
   benchmark refuses one that has fewer than ten samples beyond it. *)
type pct = { value : float; n : int; beyond : int }

let percentile v p =
  let a = sorted v in
  let n = Float.Array.length a in
  let idx = min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
  { value = Float.Array.get a idx; n; beyond = n - 1 - idx }

let median v = if v.len = 0 then nan else (percentile v 0.5).value

(* The mean of the slowest [share] of the samples, and how many that is. *)
let tail_mean v share =
  let a = sorted v in
  let n = Float.Array.length a in
  let k = max 1 (int_of_float (Float.ceil (share *. float_of_int n))) in
  let sum = ref 0.0 in
  for i = n - k to n - 1 do
    sum := !sum +. Float.Array.get a i
  done;
  (!sum /. float_of_int k, k)

(* {1 Host speed}

   On a shared host the same code runs up to half again as slow for
   tens of seconds at a time while neighbours contend for the cores'
   shared caches; the slowdown is in the hardware (CPU time tracks wall
   time), so it lasts whole runs and no median within a run removes it.
   [reference_ns] times a fixed job of the same kind of work as the
   engine (string keys into a balanced tree and a hash table, with the
   allocation that takes) that shares no code with the engine, just
   before and just after each timed stretch. A wall time measured while
   that job took [r] ns on average is reported at the nominal host
   speed, scaled by [nominal_reference_ns / r]; the report prints the
   raw goodput and set-up time next to the scaled ones. *)

module Smap = Map.Make (String)

(* Small enough that the job's garbage dies in the minor heap and stays
   out of [heap_peak_mb]. *)
let ref_keys = Array.init 2000 (fun i -> Printf.sprintf "ref%08d" (i * 7919 mod 2000))

let reference_job () =
  let m = Array.fold_left (fun m k -> Smap.add k (String.length k) m) Smap.empty ref_keys in
  let h = Hashtbl.create 16 in
  Array.iter (fun k -> Hashtbl.replace h k (Smap.find k m)) ref_keys;
  ignore (Sys.opaque_identity h)

let reference_reps = 5

(* The median of [reference_reps] timings of the job. *)
let reference_ns () =
  let a =
    Array.init reference_reps (fun _ ->
        let t0 = now_ns () in
        reference_job ();
        now_ns () - t0)
  in
  Array.sort Int.compare a;
  a.(reference_reps / 2)

(* About the reference job's median time on the machine the benchmark
   was written on (a 2-vCPU Intel Xeon virtual machine). A constant:
   changing it rescales every wall-clock figure. *)
let nominal_reference_ns = 1_600_000.0

(* How much slower than nominal the host ran while the reference job
   took [reference_ns]: a wall time is divided by it, a rate multiplied. *)
let slowdown ~reference_ns = reference_ns /. nominal_reference_ns
