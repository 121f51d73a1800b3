module Pinball = Elfie_pinball.Pinball
module Image = Elfie_elf.Image
module Diag = Elfie_util.Diag
module Rng = Elfie_util.Rng

type fault =
  | Bit_flip
  | Truncate
  | Delete_member
  | Corrupt_magic
  | Oversized_count
  | Zero_member
  | Swap_members

let all_faults =
  [ Bit_flip; Truncate; Delete_member; Corrupt_magic; Oversized_count;
    Zero_member; Swap_members ]

let fault_name = function
  | Bit_flip -> "bit-flip"
  | Truncate -> "truncate"
  | Delete_member -> "delete-member"
  | Corrupt_magic -> "corrupt-magic"
  | Oversized_count -> "oversized-count"
  | Zero_member -> "zero-member"
  | Swap_members -> "swap-members"

type outcome =
  | Accepted  (** parsed and passed validation: corruption was benign *)
  | Diagnosed of Diag.t  (** rejected with a structured diagnostic *)
  | Crashed of string  (** any other exception escaped — a harness bug *)

type case = { fault : fault; detail : string; outcome : outcome }

type report = { total : int; accepted : int; diagnosed : int; cases : case list }

let crashes r =
  List.filter (fun c -> match c.outcome with Crashed _ -> true | _ -> false)
    r.cases

(* --- File-set corruption -------------------------------------------------- *)

let pick_member rng files =
  let arr = Array.of_list files in
  arr.(Rng.int rng (Array.length arr))

let map_member files suffix fn =
  List.map (fun (s, c) -> if s = suffix then (s, fn c) else (s, c)) files

let flip_bit rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let off = Rng.int rng (Bytes.length b) in
    let bit = Rng.int rng 8 in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
    Bytes.to_string b
  end

let set_u32 s off v =
  if String.length s < off + 4 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set_int32_le b off (Int32.of_int v);
    Bytes.to_string b
  end

(* Apply one random instance of [fault] to a pinball file set. Returns
   the corrupted set and a description of what was done. *)
let corrupt_file_set rng fault files =
  match fault with
  | Bit_flip ->
      let suffix, _ = pick_member rng files in
      ( map_member files suffix (flip_bit rng),
        Printf.sprintf "bit flip in %s" suffix )
  | Truncate ->
      let suffix, content = pick_member rng files in
      let keep =
        if String.length content = 0 then 0
        else Rng.int rng (String.length content)
      in
      ( map_member files suffix (fun c -> String.sub c 0 (min keep (String.length c))),
        Printf.sprintf "%s truncated to %d bytes" suffix keep )
  | Delete_member ->
      let suffix, _ = pick_member rng files in
      ( List.remove_assoc suffix files, Printf.sprintf "%s deleted" suffix )
  | Corrupt_magic ->
      let suffix, _ = pick_member rng files in
      ( map_member files suffix (fun c -> set_u32 c 0 0x4641_4b45),
        Printf.sprintf "magic of %s overwritten" suffix )
  | Oversized_count ->
      (* Count fields sit right after the magic in every member; the
         global.log thread count sits after the fat byte. *)
      let candidates = [ ("text", 4); ("inj", 4); ("order", 4); ("global.log", 5) ] in
      let suffix, off = List.nth candidates (Rng.int rng (List.length candidates)) in
      ( map_member files suffix (fun c -> set_u32 c off 0x3fff_fff0),
        Printf.sprintf "count at %s+%d set to 0x3ffffff0" suffix off )
  | Zero_member ->
      let suffix, content = pick_member rng files in
      ( map_member files suffix (fun _ -> String.make (String.length content) '\000'),
        Printf.sprintf "%s zero-filled" suffix )
  | Swap_members ->
      let a = "text" and b = "inj" in
      let ca = List.assoc_opt a files and cb = List.assoc_opt b files in
      ( List.map
          (fun (s, c) ->
            if s = a then (s, Option.value ~default:c cb)
            else if s = b then (s, Option.value ~default:c ca)
            else (s, c))
          files,
        Printf.sprintf "%s and %s contents swapped" a b )

let classify_pinball ~name files =
  match Pinball.of_files_result ~name files with
  | Ok pb -> (
      match Validate.pinball pb with [] -> Accepted | d :: _ -> Diagnosed d)
  | Error d -> Diagnosed d
  | exception e -> Crashed (Printexc.to_string e)

let seed = 0x600DF00DL

let run_pinball ?(iterations = 20) (pb : Pinball.t) =
  let rng = Rng.create seed in
  let pristine = Pinball.to_files pb in
  let cases =
    List.concat_map
      (fun fault ->
        List.init iterations (fun _ ->
            let files, detail = corrupt_file_set rng fault pristine in
            { fault; detail; outcome = classify_pinball ~name:pb.name files }))
      all_faults
  in
  let count p = List.length (List.filter p cases) in
  {
    total = List.length cases;
    accepted = count (fun c -> c.outcome = Accepted);
    diagnosed =
      count (fun c -> match c.outcome with Diagnosed _ -> true | _ -> false);
    cases;
  }

(* --- ELF image corruption -------------------------------------------------- *)

(* ELF faults reuse the same fault classes; member-level faults act on
   the single image file. Delete/swap have no file-set analogue here, so
   they degrade to truncation-to-zero and header scrambling. *)
let corrupt_elf rng fault bytes =
  let s = Bytes.to_string bytes in
  let corrupted, detail =
    match fault with
    | Bit_flip -> (flip_bit rng s, "bit flip")
    | Truncate ->
        let keep = if String.length s = 0 then 0 else Rng.int rng (String.length s) in
        (String.sub s 0 keep, Printf.sprintf "truncated to %d bytes" keep)
    | Delete_member -> ("", "file emptied")
    | Corrupt_magic -> (set_u32 s 0 0x4641_4b45, "magic overwritten")
    | Oversized_count ->
        (* e_shoff at offset 40, e_shnum at offset 60. *)
        let which = Rng.int rng 2 in
        if which = 0 then (set_u32 s 40 0x3fff_fff0, "e_shoff oversized")
        else begin
          let b = Bytes.of_string s in
          if Bytes.length b >= 62 then Bytes.set_uint16_le b 60 0xffff;
          (Bytes.to_string b, "e_shnum oversized")
        end
    | Zero_member ->
        let n = min (String.length s) (64 + Rng.int rng 256) in
        (String.make n '\000' ^ String.sub s n (String.length s - n),
         Printf.sprintf "first %d bytes zeroed" n)
    | Swap_members ->
        (* Scramble the section-header table offset to point into data. *)
        (set_u32 s 40 (Rng.int rng (max 1 (String.length s))), "e_shoff scrambled")
  in
  (Bytes.of_string corrupted, detail)

let classify_elf bytes =
  match Image.read_result bytes with
  | Ok image -> (
      match Validate.elf image with [] -> Accepted | d :: _ -> Diagnosed d)
  | Error d -> Diagnosed d
  | exception e -> Crashed (Printexc.to_string e)

let run_elf ?(iterations = 20) (image : Image.t) =
  let rng = Rng.create seed in
  let pristine = Image.write image in
  let cases =
    List.concat_map
      (fun fault ->
        List.init iterations (fun _ ->
            let bytes, detail = corrupt_elf rng fault (Bytes.copy pristine) in
            { fault; detail; outcome = classify_elf bytes }))
      all_faults
  in
  let count p = List.length (List.filter p cases) in
  {
    total = List.length cases;
    accepted = count (fun c -> c.outcome = Accepted);
    diagnosed =
      count (fun c -> match c.outcome with Diagnosed _ -> true | _ -> false);
    cases;
  }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%d fault(s): %d diagnosed, %d benign, %d crashed@,"
    r.total r.diagnosed r.accepted
    (List.length (crashes r));
  List.iter
    (fun c ->
      match c.outcome with
      | Crashed msg ->
          Format.fprintf fmt "  CRASH %-16s %s: %s@," (fault_name c.fault)
            c.detail msg
      | _ -> ())
    r.cases;
  Format.fprintf fmt "@]"
