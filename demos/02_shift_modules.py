"""
Windowed modules over the shift algebra
=======================================

Cyclic presentations, embeddings into rational functions, pole
lattices with their skyscraper fibers, and the torsion (monodromicity)
test — all in exact rational arithmetic over finite windows of an
orbit chi + Z.
"""

from fractions import Fraction

from monofour import mellin
from monofour.scalars.poly import Poly
from monofour.scalars.ratfun import RatFun

# The two canonical cyclic modules: the simple-pole kernel module with
# relation (s+1) - Ti*s, and the exponential module with 1 - Ti*s.
kernel = mellin.kernel_module()
expmod = mellin.shift_exp_module()
print("kernel relation :", kernel.relations[0])
print("exp relation    :", expmod.relations[0])

# Their differential-side counterparts map onto them under the Mellin
# substitution, symbol for symbol.
print("mellin(kernel') :", mellin.mellin_module(mellin.weyl_kernel_module()).relations[0])

# The kernel module embeds into rational functions by sending the
# generator to 1/(s+1); shifting the window produces simple poles at
# the negative integers.  Sending the generator to 1 violates the
# relation and is refused.
lattice = mellin.embed_in_Ks(kernel, RatFun(Poly.const(1), Poly((1, 1))), N=4)
print("embedding gens  :", len(lattice.generators), "content:", lattice.content)
try:
    mellin.embed_in_Ks(kernel, RatFun(Poly.const(1), Poly.const(1)), N=4)
except mellin.NotAMorphismError as exc:
    print("refused image 1 :", exc)

# Fibers at points of the window are skyscrapers k[s]/(s-a)^n; for the
# kernel lattice each is free of rank one on the named pole generator,
# for every n, since g generates exactly when it has the content's
# valuation at a.
free = mellin.skyscraper_freeness_check("kernel", 0, 4)
print("fibers free     :", free["verdict"], "(ladder law:", free["ladder_law"], ")")

# Tensoring a skyscraper tower over 0 + [-3, 3] with the kernel or
# exponential module reproduces the tower — monodromization acts as the
# identity here.  The shift units of the tensored tower are derived from
# the line's fiber generators: on the exponential ladder the step is
# argument translation times s+1, so where the fiber generator is 1 the
# unit is s+1 at the point.  Every unit is nonzero, so the tower is back.
exp_units = mellin.tensor_equivariant(mellin.exp_ladder(4), 0, 3)
print("exp units       :", [str(u) for u in exp_units.values()])
mono = mellin.monodromization_check(Fraction(1, 2), 5)
print("monodromization :", mono["verdict"])

# Torsion test: windowed equivariant modules built from presentations
# are classified as torsion (monodromic) or not; a free module is not.
eigen_shift = mellin.mellin_module(mellin.euler_eigen_module(Fraction(1, 3)))
em_torsion = mellin.windowed_equivariant(eigen_shift, 3)
em_free = mellin.equivariant_free()
print("eigenmodule torsion :", mellin.monodromic_test(em_torsion))
print("free module torsion :", mellin.monodromic_test(em_free))

# The kernel-based transform accepts torsion inputs and refuses free
# ones with a diagnostic instead of a wrong answer.
image = mellin.fourier_B_monodromic(mellin.euler_eigen_module(Fraction(1, 2)), N=6)
print("transformed rel :", image.relations[0])
try:
    mellin.fourier_B_monodromic(mellin.point_module(1), N=6)
except mellin.NotMonodromicError as exc:
    print("refused input   :", exc.diagnostic)
