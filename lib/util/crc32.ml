(* CRC-32 (IEEE), table-driven, zlib-compatible: reflected polynomial
   0xEDB88320, initial value 0xFFFFFFFF, final xor 0xFFFFFFFF, with the
   inversions folded into [update] so a running value is always a
   finished CRC. *)

(* Built eagerly at module initialisation. A [lazy] table raced: two
   domains forcing it at once made one of them raise
   [CamlinternalLazy.Undefined]. The table and the running value are
   native ints holding 32-bit values, so the byte loop allocates
   nothing (an [Int32] running value is boxed on every byte). *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask32 = 0xFFFFFFFF

let update_range crc s pos len =
  let t = table in
  let c = ref (lnot (Int32.to_int crc) land mask32) in
  for k = pos to pos + len - 1 do
    let i = !c land 0xFF lxor Char.code (String.unsafe_get s k) in
    c := Array.unsafe_get t i lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land mask32)

let update crc s = update_range crc s 0 (String.length s)
let string s = update 0l s

let substring s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.substring";
  update_range 0l s pos len

let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if String.length s <> 8 then None
  else
    let ok = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s in
    if not ok then None
    else
      (* two halves: a full 8-digit parse can overflow Int32.of_string's
         signed range; scanning each half keeps it in bounds *)
      match
        (int_of_string ("0x" ^ String.sub s 0 4), int_of_string ("0x" ^ String.sub s 4 4))
      with
      | hi, lo ->
          Some (Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo))
      | exception _ -> None
