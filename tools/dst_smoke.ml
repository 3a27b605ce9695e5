(* DST smoke: a deterministic sweep of seeded simulation runs across
   every driver, used both as the `@dst-smoke` gate (fast: runs in
   `dune runtest`) and, with --seeds/--steps, as a soak.

   For each (driver, seed) the plan is generated, executed against a
   fresh engine with the full invariant battery, and — for the first
   seed of each driver — executed a second time from scratch to assert
   the two reports are byte-identical (the determinism contract that
   makes seed replay meaningful). Any violation prints the failing
   seed, shrinks it, and writes a repro JSON under dst/.

   With --dump DIR every (driver, seed) report is also written to
   DIR/<driver>_<seed>.txt, so two builds can be compared for same-seed
   byte-identity with `diff -r`. *)

let drivers =
  [ "blsm"; "blsm-gear"; "blsm-naive"; "partitioned"; "btree"; "leveldb";
    "replicated"; "policy-tiered"; "policy-leveled"; "policy-lazy-leveled";
    "policy-partial" ]

let () =
  let seeds = ref 5 in
  let steps = ref 0 in
  let dump = ref None in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | "--seeds" :: n :: rest ->
        seeds := int_of_string n;
        parse rest
    | "--steps" :: n :: rest ->
        steps := int_of_string n;
        parse rest
    | "--dump" :: dir :: rest ->
        dump := Some dir;
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse args;
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ())
    !dump;
  let params =
    if !steps > 0 then
      Some { Dst.Plan.default_params with Dst.Plan.n_steps = !steps }
    else None
  in
  let total = ref 0 in
  let failed = ref 0 in
  let crashes = ref 0 in
  let rot_runs = ref 0 in
  List.iter
    (fun driver ->
      for s = 1 to !seeds do
        let seed = (s * 37) + 11 in
        incr total;
        let plan, outcome = Dst.run_seed ?params ~driver_name:driver ~seed () in
        crashes := !crashes + outcome.Dst.Interp.crashes;
        if outcome.Dst.Interp.rot then incr rot_runs;
        Option.iter
          (fun dir ->
            Out_channel.with_open_bin
              (Filename.concat dir (Printf.sprintf "%s_%d.txt" driver seed))
              (fun oc -> output_string oc outcome.Dst.Interp.report))
          !dump;
        if not outcome.Dst.Interp.ok then begin
          incr failed;
          Printf.printf "FAIL driver=%s seed=%d violations:\n" driver seed;
          List.iter (Printf.printf "  %s\n") outcome.Dst.Interp.violations;
          let small, st = Dst.shrink_failing plan in
          let path =
            Printf.sprintf "dst/repro_%s_seed%d.json" driver seed
          in
          (try Unix.mkdir "dst" 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
          Dst.Repro.save path
            { small with Dst.Plan.note =
                Printf.sprintf "smoke driver=%s seed=%d" driver seed };
          Printf.printf
            "  shrunk %d -> %d steps (%d candidates); repro: %s\n"
            (List.length plan.Dst.Plan.steps)
            (List.length small.Dst.Plan.steps)
            st.Dst.Shrink.candidates path
        end;
        (* determinism gate: first seed of each driver runs twice *)
        if s = 1 then begin
          let _, again = Dst.run_seed ?params ~driver_name:driver ~seed () in
          if again.Dst.Interp.report <> outcome.Dst.Interp.report then begin
            incr failed;
            Printf.printf
              "FAIL driver=%s seed=%d: same-seed reports differ (%d vs %d bytes)\n"
              driver seed
              (String.length outcome.Dst.Interp.report)
              (String.length again.Dst.Interp.report)
          end
        end
      done;
      Printf.printf "dst-smoke: %-12s ok (%d seeds)\n%!" driver !seeds)
    drivers;
  Printf.printf
    "dst-smoke: %d runs, %d crashes recovered, %d rot runs, %d failures\n"
    !total !crashes !rot_runs !failed;
  if !failed > 0 then exit 1;
  print_endline "DST_SMOKE_OK"
