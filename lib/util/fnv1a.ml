(* The hash state lives in a local [Int64] ref that never escapes the
   loop, so the native compiler keeps it unboxed; only immediate ints
   leave the function. *)
let hash64 s k x =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)));
    h := Int64.mul !h 0x100000001B3L
  done;
  k x
    (Int64.to_int (Int64.shift_right_logical !h 32))
    (Int64.to_int (Int64.logand !h 0xFFFFFFFFL))

let hash s = hash64 s (fun () hi lo -> (hi lsl 32) lor lo) ()
