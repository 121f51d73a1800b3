open Elfie_util

(* The artifact name is patched in at the [read] boundary, where the
   caller-supplied path is known. *)
let bad ?offset ?(code = Diag.Malformed) fmt =
  Diag.fail ?offset ~artifact:"<elf-image>" code fmt

type section_kind = Progbits | Nobits | Note

type section = {
  name : string;
  kind : section_kind;
  alloc : bool;
  writable : bool;
  executable : bool;
  addr : int64;
  data : bytes;
  align : int;
}

let section ?(alloc = true) ?(writable = false) ?(executable = false)
    ?(kind = Progbits) ?(align = 16) ~name ~addr data =
  { name; kind; alloc; writable; executable; addr; data; align }

type symbol = { sym_name : string; value : int64; func : bool }

type t = {
  exec : bool;
  entry : int64;
  sections : section list;
  symbols : symbol list;
}

(* --- String tables ------------------------------------------------------ *)

module Strtab = struct
  type tab = { buf : Buffer.t; mutable offsets : (string * int) list }

  let create () =
    let buf = Buffer.create 64 in
    Buffer.add_char buf '\000';
    { buf; offsets = [] }

  let add t name =
    match List.assoc_opt name t.offsets with
    | Some off -> off
    | None ->
        let off = Buffer.length t.buf in
        Buffer.add_string t.buf name;
        Buffer.add_char t.buf '\000';
        t.offsets <- (name, off) :: t.offsets;
        off

  let contents t = Buffer.to_bytes t.buf
end

let strtab_lookup data off =
  if off >= Bytes.length data then
    bad ~code:Diag.Count_out_of_range "string table offset %d out of bounds" off;
  let rec find_end i =
    if i >= Bytes.length data then bad "unterminated string table entry"
    else if Bytes.get data i = '\000' then i
    else find_end (i + 1)
  in
  Bytes.sub_string data off (find_end off - off)

(* --- Writer ------------------------------------------------------------- *)

let align_up v a = (v + a - 1) land lnot (a - 1)

let section_flags s =
  (if s.alloc then Consts.shf_alloc else 0)
  lor (if s.writable then Consts.shf_write else 0)
  lor if s.executable then Consts.shf_execinstr else 0

let section_type s =
  match s.kind with
  | Progbits -> Consts.sht_progbits
  | Nobits -> Consts.sht_nobits
  | Note -> Consts.sht_note

let write t =
  let shstrtab = Strtab.create () in
  let strtab = Strtab.create () in
  let have_syms = t.symbols <> [] in
  (* Section table layout: null, user sections, (symtab, strtab)?, shstrtab *)
  let user = Array.of_list t.sections in
  let n_user = Array.length user in
  let symtab_idx = if have_syms then Some (1 + n_user) else None in
  let shstr_idx = 1 + n_user + if have_syms then 2 else 0 in
  let shnum = shstr_idx + 1 in
  let loadable = List.filter (fun s -> s.alloc && s.kind <> Nobits) t.sections in
  let phnum = if t.exec then List.length loadable else 0 in
  (* Pre-intern all names so table sizes are final before layout. *)
  Array.iter (fun s -> ignore (Strtab.add shstrtab s.name)) user;
  if have_syms then begin
    ignore (Strtab.add shstrtab ".symtab");
    ignore (Strtab.add shstrtab ".strtab")
  end;
  ignore (Strtab.add shstrtab ".shstrtab");
  List.iter (fun sym -> ignore (Strtab.add strtab sym.sym_name)) t.symbols;
  let symtab_data =
    if not have_syms then Bytes.empty
    else begin
      let w = Byteio.Writer.create ~capacity:((List.length t.symbols + 1) * 24) () in
      Byteio.Writer.zeros w Consts.symentsize;
      List.iter
        (fun sym ->
          Byteio.Writer.u32 w (Strtab.add strtab sym.sym_name);
          Byteio.Writer.u8 w
            (Consts.st_info ~bind:Consts.stb_global
               ~typ:(if sym.func then Consts.stt_func else 0));
          Byteio.Writer.u8 w 0;
          Byteio.Writer.u16 w Consts.shn_abs;
          Byteio.Writer.u64 w sym.value;
          Byteio.Writer.u64 w 0L)
        t.symbols;
      Byteio.Writer.contents w
    end
  in
  let strtab_data = Strtab.contents strtab in
  let shstrtab_data = Strtab.contents shstrtab in
  (* Lay out file offsets: header, phdrs, section data, shdrs. *)
  let pos = ref (Consts.ehsize + (phnum * Consts.phentsize)) in
  let place align len =
    let off = align_up !pos (max 1 align) in
    pos := off + len;
    off
  in
  let user_offsets =
    Array.map
      (fun s ->
        match s.kind with
        | Nobits -> !pos
        | Progbits | Note -> place s.align (Bytes.length s.data))
      user
  in
  let symtab_off = if have_syms then place 8 (Bytes.length symtab_data) else 0 in
  let strtab_off = if have_syms then place 1 (Bytes.length strtab_data) else 0 in
  let shstrtab_off = place 1 (Bytes.length shstrtab_data) in
  let shoff = align_up !pos 8 in
  let total = shoff + (shnum * Consts.shentsize) in
  let w = Byteio.Writer.create ~capacity:total () in
  (* ELF header. *)
  Byteio.Writer.string w Consts.magic;
  Byteio.Writer.u8 w Consts.elfclass64;
  Byteio.Writer.u8 w Consts.elfdata2lsb;
  Byteio.Writer.u8 w Consts.ev_current;
  Byteio.Writer.zeros w 9;
  Byteio.Writer.u16 w (if t.exec then Consts.et_exec else Consts.et_rel);
  Byteio.Writer.u16 w Consts.em_vx86;
  Byteio.Writer.u32 w Consts.ev_current;
  Byteio.Writer.u64 w t.entry;
  Byteio.Writer.u64 w (Int64.of_int (if phnum > 0 then Consts.ehsize else 0));
  Byteio.Writer.u64 w (Int64.of_int shoff);
  Byteio.Writer.u32 w 0;
  Byteio.Writer.u16 w Consts.ehsize;
  Byteio.Writer.u16 w Consts.phentsize;
  Byteio.Writer.u16 w phnum;
  Byteio.Writer.u16 w Consts.shentsize;
  Byteio.Writer.u16 w shnum;
  Byteio.Writer.u16 w shstr_idx;
  assert (Byteio.Writer.length w = Consts.ehsize);
  (* Program headers: one PT_LOAD per allocatable progbits section. *)
  if t.exec then
    List.iter
      (fun s ->
        let idx = ref 0 in
        Array.iteri (fun i u -> if u == s then idx := i) user;
        let off = user_offsets.(!idx) in
        Byteio.Writer.u32 w Consts.pt_load;
        Byteio.Writer.u32 w
          (Consts.pf_r
          lor (if s.writable then Consts.pf_w else 0)
          lor if s.executable then Consts.pf_x else 0);
        Byteio.Writer.u64 w (Int64.of_int off);
        Byteio.Writer.u64 w s.addr;
        Byteio.Writer.u64 w s.addr;
        Byteio.Writer.u64 w (Int64.of_int (Bytes.length s.data));
        Byteio.Writer.u64 w (Int64.of_int (Bytes.length s.data));
        Byteio.Writer.u64 w (Int64.of_int (max 1 s.align)))
      loadable;
  (* Section data. *)
  Array.iteri
    (fun i s ->
      match s.kind with
      | Nobits -> ()
      | Progbits | Note ->
          Byteio.Writer.pad_to w user_offsets.(i);
          Byteio.Writer.bytes w s.data)
    user;
  if have_syms then begin
    Byteio.Writer.pad_to w symtab_off;
    Byteio.Writer.bytes w symtab_data;
    Byteio.Writer.pad_to w strtab_off;
    Byteio.Writer.bytes w strtab_data
  end;
  Byteio.Writer.pad_to w shstrtab_off;
  Byteio.Writer.bytes w shstrtab_data;
  Byteio.Writer.pad_to w shoff;
  (* Section headers. *)
  let shdr ~name_off ~stype ~flags ~addr ~off ~size ~link ~info ~align ~entsize =
    Byteio.Writer.u32 w name_off;
    Byteio.Writer.u32 w stype;
    Byteio.Writer.u64 w (Int64.of_int flags);
    Byteio.Writer.u64 w addr;
    Byteio.Writer.u64 w (Int64.of_int off);
    Byteio.Writer.u64 w (Int64.of_int size);
    Byteio.Writer.u32 w link;
    Byteio.Writer.u32 w info;
    Byteio.Writer.u64 w (Int64.of_int align);
    Byteio.Writer.u64 w (Int64.of_int entsize)
  in
  shdr ~name_off:0 ~stype:Consts.sht_null ~flags:0 ~addr:0L ~off:0 ~size:0 ~link:0
    ~info:0 ~align:0 ~entsize:0;
  Array.iteri
    (fun i s ->
      shdr
        ~name_off:(Strtab.add shstrtab s.name)
        ~stype:(section_type s) ~flags:(section_flags s) ~addr:s.addr
        ~off:user_offsets.(i) ~size:(Bytes.length s.data) ~link:0 ~info:0
        ~align:(max 1 s.align) ~entsize:0)
    user;
  (match symtab_idx with
  | Some idx ->
      shdr
        ~name_off:(Strtab.add shstrtab ".symtab")
        ~stype:Consts.sht_symtab ~flags:0 ~addr:0L ~off:symtab_off
        ~size:(Bytes.length symtab_data) ~link:(idx + 1) ~info:1 ~align:8
        ~entsize:Consts.symentsize;
      shdr
        ~name_off:(Strtab.add shstrtab ".strtab")
        ~stype:Consts.sht_strtab ~flags:0 ~addr:0L ~off:strtab_off
        ~size:(Bytes.length strtab_data) ~link:0 ~info:0 ~align:1 ~entsize:0
  | None -> ());
  shdr
    ~name_off:(Strtab.add shstrtab ".shstrtab")
    ~stype:Consts.sht_strtab ~flags:0 ~addr:0L ~off:shstrtab_off
    ~size:(Bytes.length shstrtab_data) ~link:0 ~info:0 ~align:1 ~entsize:0;
  Byteio.Writer.contents w

(* --- Reader ------------------------------------------------------------- *)

type raw_shdr = {
  rs_name : int;
  rs_type : int;
  rs_flags : int64;
  rs_addr : int64;
  rs_off : int;
  rs_size : int;
  rs_link : int;
  rs_entsize : int;
  rs_align : int;
}

let read_exn buf =
  let len = Bytes.length buf in
  if len < Consts.ehsize then
    bad ~code:Diag.Truncated "file too small for ELF header (%d bytes)" len;
  let r = Byteio.Reader.of_bytes buf in
  let magic = Byteio.Reader.string_n r 4 in
  if magic <> Consts.magic then bad ~offset:0 ~code:Diag.Bad_magic "bad magic";
  let cls = Byteio.Reader.u8 r in
  if cls <> Consts.elfclass64 then bad ~offset:4 "not ELFCLASS64 (class=%d)" cls;
  let data = Byteio.Reader.u8 r in
  if data <> Consts.elfdata2lsb then
    bad ~offset:5 "not little-endian (data=%d)" data;
  let version = Byteio.Reader.u8 r in
  if version <> Consts.ev_current then bad ~offset:6 "bad ident version %d" version;
  Byteio.Reader.seek r 16;
  let etype = Byteio.Reader.u16 r in
  let exec =
    if etype = Consts.et_exec then true
    else if etype = Consts.et_rel then false
    else bad "unsupported e_type %d" etype
  in
  let machine = Byteio.Reader.u16 r in
  if machine <> Consts.em_vx86 then bad "not a VX86 image (e_machine=0x%x)" machine;
  let _eversion = Byteio.Reader.u32 r in
  let entry = Byteio.Reader.u64 r in
  let _phoff = Byteio.Reader.u64 r in
  let shoff = Int64.to_int (Byteio.Reader.u64 r) in
  let _flags = Byteio.Reader.u32 r in
  let _ehsize = Byteio.Reader.u16 r in
  let _phentsize = Byteio.Reader.u16 r in
  let _phnum = Byteio.Reader.u16 r in
  let shentsize = Byteio.Reader.u16 r in
  if shentsize <> Consts.shentsize then bad "bad e_shentsize %d" shentsize;
  let shnum = Byteio.Reader.u16 r in
  let shstrndx = Byteio.Reader.u16 r in
  if shoff < 0 || shoff + (shnum * Consts.shentsize) > len then
    bad ~code:Diag.Count_out_of_range
      "section header table out of bounds (shoff=%d shnum=%d len=%d)" shoff
      shnum len;
  if shstrndx >= shnum then
    bad ~code:Diag.Count_out_of_range "e_shstrndx %d out of range (shnum=%d)"
      shstrndx shnum;
  let shdrs =
    Array.init shnum (fun i ->
        Byteio.Reader.seek r (shoff + (i * Consts.shentsize));
        let rs_name = Byteio.Reader.u32 r in
        let rs_type = Byteio.Reader.u32 r in
        let rs_flags = Byteio.Reader.u64 r in
        let rs_addr = Byteio.Reader.u64 r in
        let rs_off = Int64.to_int (Byteio.Reader.u64 r) in
        let rs_size = Int64.to_int (Byteio.Reader.u64 r) in
        let rs_link = Byteio.Reader.u32 r in
        let _info = Byteio.Reader.u32 r in
        let rs_align = Int64.to_int (Byteio.Reader.u64 r) in
        let rs_entsize = Int64.to_int (Byteio.Reader.u64 r) in
        { rs_name; rs_type; rs_flags; rs_addr; rs_off; rs_size; rs_link;
          rs_entsize; rs_align })
  in
  let section_data sh what =
    if sh.rs_type = Consts.sht_nobits then Bytes.empty
    else begin
      if sh.rs_off < 0 || sh.rs_size < 0 || sh.rs_off + sh.rs_size > len then
        bad ~code:Diag.Count_out_of_range "%s data out of bounds (off=%d size=%d)"
          what sh.rs_off sh.rs_size;
      Bytes.sub buf sh.rs_off sh.rs_size
    end
  in
  let shstrtab = section_data shdrs.(shstrndx) ".shstrtab" in
  let name_of sh = strtab_lookup shstrtab sh.rs_name in
  let flag sh f = Int64.logand sh.rs_flags (Int64.of_int f) <> 0L in
  let sections = ref [] in
  let symbols = ref [] in
  Array.iteri
    (fun i sh ->
      if i = 0 || i = shstrndx then ()
      else if sh.rs_type = Consts.sht_symtab then begin
        if sh.rs_entsize <> Consts.symentsize then
          bad "bad symtab entsize %d" sh.rs_entsize;
        if sh.rs_link >= shnum then
          bad ~code:Diag.Count_out_of_range "symtab link %d out of range"
            sh.rs_link;
        let strtab = section_data shdrs.(sh.rs_link) ".strtab" in
        let data = section_data sh ".symtab" in
        let count = Bytes.length data / Consts.symentsize in
        let sr = Byteio.Reader.of_bytes data in
        for s = 1 to count - 1 do
          Byteio.Reader.seek sr (s * Consts.symentsize);
          let name_off = Byteio.Reader.u32 sr in
          let info = Byteio.Reader.u8 sr in
          let _other = Byteio.Reader.u8 sr in
          let _shndx = Byteio.Reader.u16 sr in
          let value = Byteio.Reader.u64 sr in
          symbols :=
            {
              sym_name = strtab_lookup strtab name_off;
              value;
              func = info land 0xf = Consts.stt_func;
            }
            :: !symbols
        done
      end
      else if sh.rs_type = Consts.sht_strtab then ()
        (* .strtab consumed via symtab link above *)
      else
        let kind =
          if sh.rs_type = Consts.sht_progbits then Progbits
          else if sh.rs_type = Consts.sht_nobits then Nobits
          else if sh.rs_type = Consts.sht_note then Note
          else bad "unsupported section type %d for %s" sh.rs_type (name_of sh)
        in
        sections :=
          {
            name = name_of sh;
            kind;
            alloc = flag sh Consts.shf_alloc;
            writable = flag sh Consts.shf_write;
            executable = flag sh Consts.shf_execinstr;
            addr = sh.rs_addr;
            data = section_data sh (name_of sh);
            align = max 1 sh.rs_align;
          }
          :: !sections)
    shdrs;
  { exec; entry; sections = List.rev !sections; symbols = List.rev !symbols }

(* Any cursor exhaustion inside the parser is a malformed file, not a
   programming error. *)
let read ?(artifact = "<elf-image>") buf =
  try read_exn buf with
  | Diag.Error d -> raise (Diag.Error { d with Diag.artifact })
  | Byteio.Truncated msg ->
      raise (Diag.Error (Diag.v ~artifact Diag.Truncated msg))

let read_result ?artifact buf = Diag.protect (fun () -> read ?artifact buf)

let loadable t =
  List.filter_map
    (fun s ->
      if s.alloc && s.kind <> Nobits then
        Some (s.addr, s.data, (true, s.writable, s.executable))
      else None)
    t.sections

let find_section t name = List.find_opt (fun s -> s.name = name) t.sections

let find_symbol t name =
  List.find_map
    (fun sym -> if sym.sym_name = name then Some sym.value else None)
    t.symbols

let pp fmt t =
  Format.fprintf fmt "@[<v>ELF %s, entry 0x%Lx, %d sections, %d symbols@,"
    (if t.exec then "EXEC" else "REL")
    t.entry (List.length t.sections) (List.length t.symbols);
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-24s %s%s%s%s addr=0x%Lx size=%d@," s.name
        (match s.kind with Progbits -> "P" | Nobits -> "B" | Note -> "N")
        (if s.alloc then "A" else "-")
        (if s.writable then "W" else "-")
        (if s.executable then "X" else "-")
        s.addr (Bytes.length s.data))
    t.sections;
  Format.fprintf fmt "@]"
