open Elfie_util

type syscall_entry = {
  sys_nr : int;
  sys_args : int64 array;
  sys_path : string option;
  sys_ret : int64;
  sys_writes : (int64 * string) list;
  sys_reexec : bool;
}

type t = {
  name : string;
  fat : bool;
  contexts : Elfie_machine.Context.t array;
  pages : (int64 * bytes) list;
  icounts : int64 array;
  schedule : (int * int) list;
  injections : syscall_entry list array;
  brk : int64;
  symbols : (string * int64) list;
}

let num_threads t = Array.length t.contexts

let total_icount t = Array.fold_left Int64.add 0L t.icounts

let image_bytes t =
  List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 t.pages

(* --- Serialization ------------------------------------------------------ *)

let text_magic = 0x56585054 (* "TPXV" *)
let global_magic = 0x56584c47
let inj_magic = 0x56584a49
let order_magic = 0x5658524f

let write_text t =
  let w = Byteio.Writer.create ~capacity:(image_bytes t + 64) () in
  Byteio.Writer.u32 w text_magic;
  Byteio.Writer.u32 w (List.length t.pages);
  List.iter
    (fun (addr, data) ->
      Byteio.Writer.u64 w addr;
      Byteio.Writer.u32 w (Bytes.length data);
      Byteio.Writer.bytes w data)
    t.pages;
  Bytes.to_string (Byteio.Writer.contents w)

let write_global t =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w global_magic;
  Byteio.Writer.u8 w (if t.fat then 1 else 0);
  Byteio.Writer.u32 w (Array.length t.contexts);
  Array.iter (Byteio.Writer.u64 w) t.icounts;
  Byteio.Writer.u64 w t.brk;
  Byteio.Writer.u32 w (List.length t.symbols);
  List.iter
    (fun (name, value) ->
      Byteio.Writer.u32 w (String.length name);
      Byteio.Writer.string w name;
      Byteio.Writer.u64 w value)
    t.symbols;
  Bytes.to_string (Byteio.Writer.contents w)

let write_inj t =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w inj_magic;
  Byteio.Writer.u32 w (Array.length t.injections);
  Array.iter
    (fun entries ->
      Byteio.Writer.u32 w (List.length entries);
      List.iter
        (fun e ->
          Byteio.Writer.u32 w e.sys_nr;
          Array.iter (Byteio.Writer.u64 w) e.sys_args;
          (match e.sys_path with
          | Some p ->
              Byteio.Writer.u32 w (String.length p);
              Byteio.Writer.string w p
          | None -> Byteio.Writer.u32 w 0xffff_ffff);
          Byteio.Writer.u64 w e.sys_ret;
          Byteio.Writer.u8 w (if e.sys_reexec then 1 else 0);
          Byteio.Writer.u32 w (List.length e.sys_writes);
          List.iter
            (fun (addr, data) ->
              Byteio.Writer.u64 w addr;
              Byteio.Writer.u32 w (String.length data);
              Byteio.Writer.string w data)
            e.sys_writes)
        entries)
    t.injections;
  Bytes.to_string (Byteio.Writer.contents w)

let write_order t =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w order_magic;
  Byteio.Writer.u32 w (List.length t.schedule);
  List.iter
    (fun (tid, n) ->
      Byteio.Writer.u32 w tid;
      Byteio.Writer.u32 w n)
    t.schedule;
  Bytes.to_string (Byteio.Writer.contents w)

(* --- Deserialization ----------------------------------------------------

   Every member reader reports malformed input as a structured
   [Diag.t]: magic/count checks raise [Diag.Error] directly; cursor
   exhaustion inside Byteio surfaces as [Truncated] and is converted at
   the member boundary. Count fields are checked against the bytes
   actually present before any allocation, so an oversized count in a
   corrupt file is a diagnostic, not a gigantic allocation or a hang. *)

let expect_magic r ~artifact ~what expected =
  let off = Byteio.Reader.pos r in
  let m = Byteio.Reader.u32 r in
  if m <> expected then
    Diag.fail ~offset:off ~artifact Diag.Bad_magic
      "bad %s magic 0x%08x (expected 0x%08x)" what m expected

(* A count of entries each at least [entry_min] bytes long. *)
let read_count r ~artifact ~what ~entry_min =
  let off = Byteio.Reader.pos r in
  let n = Byteio.Reader.u32 r in
  if n * entry_min > Byteio.Reader.remaining r then
    Diag.fail ~offset:off ~artifact Diag.Count_out_of_range
      "%s count %d cannot fit in the %d bytes that follow" what n
      (Byteio.Reader.remaining r);
  n

let finish r ~artifact =
  if Byteio.Reader.remaining r > 0 then
    Diag.fail ~offset:(Byteio.Reader.pos r) ~artifact Diag.Malformed
      "%d trailing bytes after the last field" (Byteio.Reader.remaining r)

(* Run a member parser, converting cursor exhaustion to a diagnostic. *)
let parse ~artifact fn s =
  let r = Byteio.Reader.of_string s in
  match fn r with
  | v ->
      finish r ~artifact;
      v
  | exception Byteio.Truncated msg ->
      Diag.fail ~offset:(Byteio.Reader.pos r) ~artifact Diag.Truncated "%s" msg

let read_text ~artifact s =
  parse ~artifact
    (fun r ->
      expect_magic r ~artifact ~what:".text" text_magic;
      let n = read_count r ~artifact ~what:"page" ~entry_min:12 in
      List.init n (fun _ ->
          let addr = Byteio.Reader.u64 r in
          let len = read_count r ~artifact ~what:"page length" ~entry_min:1 in
          (addr, Byteio.Reader.bytes r len)))
    s

let read_global ~artifact s =
  parse ~artifact
    (fun r ->
      expect_magic r ~artifact ~what:".global.log" global_magic;
      let fat_off = Byteio.Reader.pos r in
      let fat_byte = Byteio.Reader.u8 r in
      if fat_byte > 1 then
        Diag.fail ~offset:fat_off ~artifact Diag.Malformed
          "fat flag is %d (expected 0 or 1)" fat_byte;
      let fat = fat_byte = 1 in
      let n = read_count r ~artifact ~what:"thread" ~entry_min:8 in
      let icounts = Array.init n (fun _ -> Byteio.Reader.u64 r) in
      let brk = Byteio.Reader.u64 r in
      let nsyms = read_count r ~artifact ~what:"symbol" ~entry_min:12 in
      let symbols =
        List.init nsyms (fun _ ->
            let len = read_count r ~artifact ~what:"symbol name" ~entry_min:1 in
            let name = Byteio.Reader.string_n r len in
            (name, Byteio.Reader.u64 r))
      in
      (fat, icounts, brk, symbols))
    s

let read_inj ~artifact s =
  parse ~artifact
    (fun r ->
      expect_magic r ~artifact ~what:".inj" inj_magic;
      let threads = read_count r ~artifact ~what:"thread" ~entry_min:4 in
      Array.init threads (fun _ ->
          let n = read_count r ~artifact ~what:"injection entry" ~entry_min:69 in
          List.init n (fun _ ->
              let sys_nr = Byteio.Reader.u32 r in
              let sys_args = Array.init 6 (fun _ -> Byteio.Reader.u64 r) in
              let sys_path =
                let off = Byteio.Reader.pos r in
                let len = Byteio.Reader.u32 r in
                if len = 0xffff_ffff then None
                else if len > Byteio.Reader.remaining r then
                  Diag.fail ~offset:off ~artifact Diag.Count_out_of_range
                    "path length %d exceeds %d remaining bytes" len
                    (Byteio.Reader.remaining r)
                else Some (Byteio.Reader.string_n r len)
              in
              let sys_ret = Byteio.Reader.u64 r in
              let sys_reexec = Byteio.Reader.u8 r = 1 in
              let nw = read_count r ~artifact ~what:"kernel write" ~entry_min:12 in
              let sys_writes =
                List.init nw (fun _ ->
                    let addr = Byteio.Reader.u64 r in
                    let len =
                      read_count r ~artifact ~what:"write length" ~entry_min:1
                    in
                    (addr, Byteio.Reader.string_n r len))
              in
              { sys_nr; sys_args; sys_path; sys_ret; sys_writes; sys_reexec })))
    s

let read_order ~artifact s =
  parse ~artifact
    (fun r ->
      expect_magic r ~artifact ~what:".order" order_magic;
      let n = read_count r ~artifact ~what:"schedule slice" ~entry_min:8 in
      List.init n (fun _ ->
          let tid = Byteio.Reader.u32 r in
          (tid, Byteio.Reader.u32 r)))
    s

let read_reg ~artifact s =
  match Elfie_machine.Context.of_bytes (Bytes.of_string s) with
  | ctx -> ctx
  | exception Byteio.Truncated msg ->
      Diag.fail ~artifact Diag.Truncated "register file too short: %s" msg

let to_files t =
  let regs =
    Array.to_list
      (Array.mapi
         (fun i ctx ->
           (Printf.sprintf "%d.reg" i,
            Bytes.to_string (Elfie_machine.Context.to_bytes ctx)))
         t.contexts)
  in
  [ ("text", write_text t); ("global.log", write_global t);
    ("inj", write_inj t); ("order", write_order t) ]
  @ regs

let member_path ?dir ~name suffix =
  let file = name ^ "." ^ suffix in
  match dir with Some d -> Filename.concat d file | None -> file

let of_files_exn ?dir ~name files =
  let get suffix =
    match List.assoc_opt suffix files with
    | Some s -> s
    | None ->
        Diag.fail ~artifact:(member_path ?dir ~name suffix) Diag.Missing_file
          "pinball %S in %s is missing its %s member (expected file %s)" name
          (Option.value ~default:"<memory>" dir)
          suffix
          (member_path ?dir ~name suffix)
  in
  let art suffix = member_path ?dir ~name suffix in
  let fat, icounts, brk, symbols =
    read_global ~artifact:(art "global.log") (get "global.log")
  in
  let n = Array.length icounts in
  let contexts =
    Array.init n (fun i ->
        let suffix = Printf.sprintf "%d.reg" i in
        read_reg ~artifact:(art suffix) (get suffix))
  in
  {
    name;
    fat;
    contexts;
    pages = read_text ~artifact:(art "text") (get "text");
    icounts;
    schedule = read_order ~artifact:(art "order") (get "order");
    injections = read_inj ~artifact:(art "inj") (get "inj");
    brk;
    symbols;
  }

let of_files_result ?dir ~name files =
  Diag.protect (fun () -> of_files_exn ?dir ~name files)

let save t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (suffix, content) ->
      let path = Filename.concat dir (t.name ^ "." ^ suffix) in
      let oc = open_out_bin path in
      output_string oc content;
      close_out oc)
    (to_files t)

let load_exn ~dir ~name =
  let read_file suffix =
    let path = member_path ~dir ~name suffix in
    if Sys.file_exists path then begin
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | s -> Some (suffix, s)
      | exception Sys_error msg -> raise (Diag.Error (Diag.io_error ~artifact:path msg))
    end
    else None
  in
  let n_threads =
    match read_file "global.log" with
    | Some (_, s) ->
        let _, icounts, _, _ =
          read_global ~artifact:(member_path ~dir ~name "global.log") s
        in
        Array.length icounts
    | None ->
        Diag.fail
          ~artifact:(member_path ~dir ~name "global.log")
          Diag.Missing_file "no pinball named %S in %s (expected file %s)" name
          dir
          (member_path ~dir ~name "global.log")
  in
  let suffixes =
    [ "text"; "global.log"; "inj"; "order" ]
    @ List.init n_threads (Printf.sprintf "%d.reg")
  in
  of_files_exn ~dir ~name (List.filter_map read_file suffixes)

let load ~dir ~name = load_exn ~dir ~name

let load_result ~dir ~name = Diag.protect (fun () -> load_exn ~dir ~name)

let equal a b =
  a.fat = b.fat
  && Array.length a.contexts = Array.length b.contexts
  && Array.for_all2 Elfie_machine.Context.equal a.contexts b.contexts
  && List.equal (fun (x, p) (y, q) -> x = y && Bytes.equal p q) a.pages b.pages
  && a.icounts = b.icounts && a.schedule = b.schedule
  && a.injections = b.injections && a.brk = b.brk && a.symbols = b.symbols

let pp_summary fmt t =
  Format.fprintf fmt
    "pinball %s: %d thread(s), %d pages (%d bytes), %Ld instructions, %s" t.name
    (num_threads t) (List.length t.pages) (image_bytes t) (total_icount t)
    (if t.fat then "fat" else "lean")
