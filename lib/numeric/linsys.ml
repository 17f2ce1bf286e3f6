(* Solver-agnostic linear-system seam: see linsys.mli for the contract.

   The Dense backend must stay byte-identical to the historical direct
   Mat/Lu/Cmat call sequence — reset is Mat.fill 0 (indistinguishable from
   a fresh Mat.create), solve is Lu.solve (Lu.factor m) b, and the complex
   factor is Cmat.of_real ~imag_scale:omega followed by Cmat.solve per
   right-hand side.  Do not "optimise" these closures. *)

module Pattern = struct
  (* [strong] rows hold the entries assembled to a nonzero value by every
     analysis sharing the pattern; weak entries ([add_weak]: capacitor-only
     positions, numerically zero in a DC assembly) are structurally present
     but must not carry a pivot — the csr transversal prefers strong
     entries so the no-pivoting factorisation never lands on one. *)
  type t = { n : int; rows : int array array; strong : int array array }

  type builder = { bn : int; seen : (int, bool) Hashtbl.t }

  let builder n =
    if n < 0 then invalid_arg "Linsys.Pattern.builder";
    { bn = n; seen = Hashtbl.create (8 * (n + 1)) }

  let add b i j =
    if i < 0 || j < 0 || i >= b.bn || j >= b.bn then
      invalid_arg "Linsys.Pattern.add: entry out of range";
    Hashtbl.replace b.seen ((i * b.bn) + j) true

  let add_weak b i j =
    if i < 0 || j < 0 || i >= b.bn || j >= b.bn then
      invalid_arg "Linsys.Pattern.add_weak: entry out of range";
    let key = (i * b.bn) + j in
    (* never downgrade a strong entry *)
    if not (Hashtbl.mem b.seen key) then Hashtbl.replace b.seen key false

  let build_count = Atomic.make 0

  let builds () = Atomic.get build_count

  let build b =
    Atomic.incr build_count;
    let per_row = Array.make b.bn [] in
    let strong_per_row = Array.make b.bn [] in
    Hashtbl.iter
      (fun key strong ->
        let i = key / b.bn and j = key mod b.bn in
        per_row.(i) <- j :: per_row.(i);
        if strong then strong_per_row.(i) <- j :: strong_per_row.(i))
      b.seen;
    let sorted = Array.map (fun cols -> Array.of_list (List.sort_uniq compare cols)) in
    { n = b.bn; rows = sorted per_row; strong = sorted strong_per_row }

  let size p = p.n

  let rows p = p.rows

  let strong_rows p = p.strong

  let mem p i j =
    i >= 0 && j >= 0 && i < p.n && j < p.n
    && Array.exists (fun c -> c = j) p.rows.(i)
end

type real = {
  rn : int;
  reset : unit -> unit;
  add : int -> int -> float -> unit;
  solve : float array -> float array;
}

type complex_sys = {
  cn : int;
  creset : unit -> unit;
  add_g : int -> int -> float -> unit;
  add_c : int -> int -> float -> unit;
  factor : omega:float -> Complex.t array -> Complex.t array;
}

module type S = sig
  type compiled

  val name : string
  val compile : Pattern.t -> compiled
  val real : compiled -> real
  val complex : compiled -> complex_sys
end

module Dense_backend = struct
  type compiled = int

  let name = "dense"

  let compile p = Pattern.size p

  let real n =
    let m = Mat.create n n in
    {
      rn = n;
      reset = (fun () -> Mat.fill m 0.);
      add = Mat.add_to m;
      solve = (fun b -> Lu.solve (Lu.factor m) b);
    }

  let complex n =
    let g = Mat.create n n in
    let c = Mat.create n n in
    {
      cn = n;
      creset =
        (fun () ->
          Mat.fill g 0.;
          Mat.fill c 0.);
      add_g = Mat.add_to g;
      add_c = Mat.add_to c;
      factor =
        (fun ~omega ->
          let m = Cmat.of_real ~imag_scale:omega g c in
          fun rhs -> Cmat.solve m rhs);
    }
end

module Csr_backend = struct
  type compiled = Csr.symbolic

  let name = "csr"

  let compile p =
    Csr.analyse
      ~strong_rows:(Pattern.strong_rows p)
      ~n:(Pattern.size p) (Pattern.rows p)

  let real sym =
    let w = Csr.rwork sym in
    {
      rn = Csr.size sym;
      reset = (fun () -> Csr.rreset w);
      add = Csr.radd w;
      solve = Csr.rsolve w;
    }

  let complex sym =
    let w = Csr.cwork sym in
    {
      cn = Csr.size sym;
      creset = (fun () -> Csr.creset w);
      add_g = Csr.cadd_g w;
      add_c = Csr.cadd_c w;
      factor = (fun ~omega -> Csr.cfactor w ~omega);
    }
end

type backend = Dense | Csr

let backend_name = function Dense -> "dense" | Csr -> "csr"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" -> Some Dense
  | "csr" | "sparse" -> Some Csr
  | _ -> None

let backend_names = [ "dense"; "csr" ]

type t =
  | Compiled : (module S with type compiled = 'a) * 'a * int -> t

let compile backend pattern =
  let n = Pattern.size pattern in
  match backend with
  | Dense ->
      Compiled ((module Dense_backend), Dense_backend.compile pattern, n)
  | Csr -> Compiled ((module Csr_backend), Csr_backend.compile pattern, n)

let dense_of_size n = Compiled ((module Dense_backend), n, n)

let real (Compiled ((module B), c, _)) = B.real c

let complex (Compiled ((module B), c, _)) = B.complex c

let name (Compiled ((module B), _, _)) = B.name

let size (Compiled (_, _, n)) = n
