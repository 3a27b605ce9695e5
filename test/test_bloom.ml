(* Bloom filter tests: the no-false-negative guarantee (property), the <1%
   false-positive target at 10 bits/item (§3.1), sizing, serialization. *)

let check = Alcotest.check

let test_empty_contains_nothing () =
  let b = Bloom.create ~expected_items:100 () in
  for i = 0 to 99 do
    if Bloom.mem b (string_of_int i) then Alcotest.fail "empty filter claims membership"
  done

let test_added_keys_found () =
  let b = Bloom.create ~expected_items:1000 () in
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key%06d" i)
  done;
  for i = 0 to 999 do
    if not (Bloom.mem b (Printf.sprintf "key%06d" i)) then
      Alcotest.failf "false negative for key%06d" i
  done

let test_fp_rate_below_target () =
  let n = 20_000 in
  let b = Bloom.create ~expected_items:n () in
  for i = 0 to n - 1 do
    Bloom.add b (Printf.sprintf "present%08d" i)
  done;
  let fps = ref 0 in
  let probes = 50_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent%08d" i) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  (* paper target: 1% at 10 bits/item; allow 1.5% slack for hash variance *)
  if rate > 0.015 then Alcotest.failf "false positive rate %.4f > 0.015" rate;
  if Bloom.expected_fp_rate b > 0.012 then
    Alcotest.failf "model fp rate %.4f > 0.012" (Bloom.expected_fp_rate b)

let test_sizing () =
  let b = Bloom.create ~expected_items:1000 ~bits_per_item:10 () in
  (* 10 bits/item = 1.25 bytes/item, the paper's memory overhead figure *)
  check Alcotest.int "bytes" 1250 (Bloom.size_bytes b)

let test_serialization_roundtrip () =
  let b = Bloom.create ~expected_items:500 () in
  for i = 0 to 499 do
    Bloom.add b (string_of_int i)
  done;
  let b' = Bloom.of_string (Bloom.to_string b) in
  check Alcotest.int "inserted preserved" 500 (Bloom.inserted b');
  for i = 0 to 499 do
    if not (Bloom.mem b' (string_of_int i)) then Alcotest.fail "lost key"
  done

(* ------------------------------------------------------------------ *)
(* Blocked (cache-line) layout *)

let test_blocked_membership () =
  let b = Bloom.create ~kind:Bloom.Blocked ~expected_items:1000 () in
  check Alcotest.bool "kind" true (Bloom.kind b = Bloom.Blocked);
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key%06d" i)
  done;
  for i = 0 to 999 do
    if not (Bloom.mem b (Printf.sprintf "key%06d" i)) then
      Alcotest.failf "blocked false negative for key%06d" i
  done

let test_blocked_sizing_block_multiple () =
  let b = Bloom.create ~kind:Bloom.Blocked ~expected_items:1000 ~bits_per_item:10 () in
  let bits = Bloom.size_bytes b * 8 in
  check Alcotest.int "whole blocks" 0 (bits mod Bloom.block_bits);
  if bits < 10 * 1000 then Alcotest.fail "blocked filter under-sized"

let test_blocked_fp_within_2x_standard () =
  (* Same keys, same bits-per-key budget: the blocked layout pays only a
     block-load-variance penalty, bounded well under 2x the standard
     filter's measured false-positive count. Hashing is deterministic, so
     these counts are exact, not statistical. *)
  let n = 20_000 and probes = 50_000 in
  let std = Bloom.create ~expected_items:n () in
  let blk = Bloom.create ~kind:Bloom.Blocked ~expected_items:n () in
  for i = 0 to n - 1 do
    let k = Printf.sprintf "present%08d" i in
    Bloom.add std k;
    Bloom.add blk k
  done;
  let count b =
    let fps = ref 0 in
    for i = 0 to probes - 1 do
      if Bloom.mem b (Printf.sprintf "absent%08d" i) then incr fps
    done;
    !fps
  in
  let std_fps = count std and blk_fps = count blk in
  if blk_fps > 2 * std_fps then
    Alcotest.failf "blocked fp count %d > 2x standard %d" blk_fps std_fps;
  (* and it is still a working filter: below the paper's 1.5%% slack *)
  let rate = float_of_int blk_fps /. float_of_int probes in
  if rate > 0.015 then Alcotest.failf "blocked fp rate %.4f > 0.015" rate

let test_blocked_serialization_roundtrip () =
  let b = Bloom.create ~kind:Bloom.Blocked ~expected_items:500 () in
  for i = 0 to 499 do
    Bloom.add b (string_of_int i)
  done;
  let s = Bloom.to_string b in
  check Alcotest.char "blocked marker" '\000' s.[0];
  let b' = Bloom.of_string s in
  check Alcotest.bool "kind preserved" true (Bloom.kind b' = Bloom.Blocked);
  check Alcotest.int "inserted preserved" 500 (Bloom.inserted b');
  for i = 0 to 499 do
    if not (Bloom.mem b' (string_of_int i)) then Alcotest.fail "lost key"
  done;
  (* standard serialization stays marker-free (seed byte-compat) *)
  let std = Bloom.create ~expected_items:500 () in
  Bloom.add std "k";
  if (Bloom.to_string std).[0] = '\000' then
    Alcotest.fail "standard encoding gained a marker byte"

let prop_blocked_no_false_negatives =
  QCheck.Test.make ~name:"blocked: no false negatives" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) string_small)
    (fun keys ->
      let b =
        Bloom.create ~kind:Bloom.Blocked ~expected_items:(List.length keys) ()
      in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let prop_blocked_fp_bounded =
  (* At equal bits/key over varying key populations, the blocked filter's
     measured false-positive count stays within 2x of the standard one
     (small additive slack absorbs tiny-count quantization). *)
  QCheck.Test.make ~name:"blocked: fp within 2x of standard" ~count:10
    QCheck.(int_range 0 1000)
    (fun salt ->
      let n = 5000 and probes = 10_000 in
      let std = Bloom.create ~expected_items:n () in
      let blk = Bloom.create ~kind:Bloom.Blocked ~expected_items:n () in
      for i = 0 to n - 1 do
        let k = Printf.sprintf "s%d-%06d" salt i in
        Bloom.add std k;
        Bloom.add blk k
      done;
      let count b =
        let fps = ref 0 in
        for i = 0 to probes - 1 do
          if Bloom.mem b (Printf.sprintf "a%d-%06d" salt i) then incr fps
        done;
        !fps
      in
      count blk <= (2 * count std) + 20)

let prop_no_false_negatives =
  QCheck.Test.make ~name:"no false negatives" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) string_small)
    (fun keys ->
      let b = Bloom.create ~expected_items:(List.length keys) () in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let prop_monotone_under_more_adds =
  (* adding more keys never removes membership: bits only go 0 -> 1 *)
  QCheck.Test.make ~name:"monotone membership" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 50) string_small) (list_of_size Gen.(1 -- 50) string_small))
    (fun (first, second) ->
      let b = Bloom.create ~expected_items:100 () in
      List.iter (Bloom.add b) first;
      let ok_before = List.for_all (Bloom.mem b) first in
      List.iter (Bloom.add b) second;
      ok_before && List.for_all (Bloom.mem b) first)

(* Golden bytes: [to_string] of both layouts over a fixed key set
   (including the empty key and bytes >= 0x80), recorded from the
   filter's original closure-and-tuple hashing code. Bit positions are
   part of the persisted format, so any change to the hash or the probe
   derivation fails here — a round-trip test cannot notice. *)
let golden_keys =
  "" :: "\xff\x80\x00"
  :: List.init 58 (fun i -> Printf.sprintf "user%06d" (i * 7919))

let golden_standard =
  String.concat ""
    [
      "d804073cf757586edd32516d007f099849f69bbd7a492cbbb99811faf47a854b";
      "95aeb88d7ff64840bd2a86aef6c73d82707a8bbc9da628bceab2450a76232a43";
      "6f74d5da43572701d5f3979f13d145";
    ]

let golden_blocked =
  String.concat ""
    [
      "008008073ca700a6412e0214046247dcc088a2105214a5111a0580cbd64d32c2";
      "2830150e3228d37250964f2db30a9c858168d2121540411032e2092604080d38";
      "060101300235d02a921204a80846244a034288c03ec38a842401b85528a61148";
      "08453ca055161010ba1a490c0c212c41c1733c1472450740226088352e3c7044";
      "2445120c01";
    ]

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_golden_bytes () =
  List.iter
    (fun (name, kind, expected) ->
      let b = Bloom.create ~kind ~expected_items:(List.length golden_keys) () in
      List.iter (Bloom.add b) golden_keys;
      check Alcotest.string name expected (hex (Bloom.to_string b)))
    [
      ("standard", Bloom.Standard, golden_standard);
      ("blocked", Bloom.Blocked, golden_blocked);
    ]

(* A membership probe, hit or miss, allocates nothing: the hash and both
   derived probe seeds stay unboxed. *)
let test_mem_no_alloc () =
  List.iter
    (fun kind ->
      let b = Bloom.create ~kind ~expected_items:1000 () in
      for i = 0 to 999 do
        Bloom.add b (Printf.sprintf "key%06d" i)
      done;
      let probes = Array.init 2000 (Printf.sprintf "key%06d") in
      let hits = ref 0 in
      let measure f =
        let before = Gc.minor_words () in
        f ();
        Gc.minor_words () -. before
      in
      let words =
        measure (fun () ->
            for i = 0 to Array.length probes - 1 do
              if Bloom.mem b probes.(i) then incr hits
            done)
        -. measure ignore
      in
      if !hits < 1000 then Alcotest.fail "false negative";
      check (Alcotest.float 0.) "minor words for 2000 probes" 0. words)
    [ Bloom.Standard; Bloom.Blocked ]

let () =
  Alcotest.run "bloom"
    [
      ( "bloom",
        [
          Alcotest.test_case "empty" `Quick test_empty_contains_nothing;
          Alcotest.test_case "membership" `Quick test_added_keys_found;
          Alcotest.test_case "fp rate" `Quick test_fp_rate_below_target;
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "serialization" `Quick test_serialization_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "mem allocates nothing" `Quick test_mem_no_alloc;
          QCheck_alcotest.to_alcotest prop_no_false_negatives;
          QCheck_alcotest.to_alcotest prop_monotone_under_more_adds;
        ] );
      ( "blocked",
        [
          Alcotest.test_case "membership" `Quick test_blocked_membership;
          Alcotest.test_case "sizing" `Quick test_blocked_sizing_block_multiple;
          Alcotest.test_case "fp within 2x" `Quick test_blocked_fp_within_2x_standard;
          Alcotest.test_case "serialization" `Quick test_blocked_serialization_roundtrip;
          QCheck_alcotest.to_alcotest prop_blocked_no_false_negatives;
          QCheck_alcotest.to_alcotest prop_blocked_fp_bounded;
        ] );
    ]
