(* Metric collection and the result line. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("blsm_bench: " ^ s); exit 2) fmt

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float }

let metrics = ref []
let emit name unit_ value = metrics := { name; unit_; value } :: !metrics

let median xs =
  let v = Meter.vec () in
  List.iter (Meter.push v) xs;
  Meter.median v

(* [print_pct name unit_ sets p] prints the median of each sample set's
   percentile [p], times the set's scale (the sets are sub-phases, each
   scaled to the nominal host speed, or the whole phase, unscaled),
   with the sample counts. It prints no figure when a set has fewer than
   ten samples beyond its percentile (a short run's sub-phases). *)
let print_pct name unit_ sets p =
  let qs = List.filter_map (fun (v, k) -> if v.Meter.len > 0 then Some (Meter.percentile v p, k) else None) sets in
  if qs <> [] then begin
    let beyond = List.fold_left (fun m ((q : Meter.pct), _) -> min m q.beyond) max_int qs in
    if beyond < 10 then
      Printf.printf "pct %s: too few samples (%d beyond p%g in a set)\n" name beyond (100. *. p)
    else
      Printf.printf "pct %s = %.3f %s (median of %d sets; n=%d; beyond>=%d per set)\n" name
        (median (List.map (fun ((q : Meter.pct), k) -> q.value *. k) qs))
        unit_ (List.length qs)
        (List.fold_left (fun n ((q : Meter.pct), _) -> n + q.n) 0 qs)
        beyond
  end

(* The share of the samples whose mean [emit_tail] reports. *)
let tail_share = 0.05

(* The mean of the slowest 5% of [v]. Unlike a percentile of the
   simulated clock, which lands on one of a few discrete I/O costs, it
   moves with every sample in the tail; over the slowest 1% it jumped
   by a tenth from seed to seed on mixed_uncached. *)
let emit_tail name unit_ v =
  if v.Meter.len > 0 then begin
    let mean, k = Meter.tail_mean v tail_share in
    if k < 10 then die "%s: only %d samples in its tail" name k;
    Printf.printf "tail %s = %.3f %s (slowest %d of %d)\n" name mean unit_ k v.Meter.len;
    emit name unit_ mean
  end

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let det_lines = ref []
let det name fmt = Printf.ksprintf (fun s -> det_lines := (name, s) :: !det_lines) fmt

(* {1 Output} *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then die "metric %s is not finite" m.name;
      Printf.printf "metric %s = %.6g %s\n" m.name m.value m.unit_)
    ms;
  List.iter (fun (k, v) -> Printf.printf "det %s %s\n" k v) (List.rev !det_lines);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value)
              m.unit_)
          ms))

